"""Mixed-network model: parameters, forward/backward, training, and the
single measured-only-at-the-end circuit.

Two semantics coexist on purpose:

- The *factorized* forward pass evaluates the network layer by layer on
  classical vectors (amplitudes through the v stage, per-qubit
  probabilities afterwards). It is the training-time semantics and is
  what every accuracy number refers to.
- ``circuit_inference`` compiles the whole network into one circuit with
  a fresh register per u neuron and no measurement anywhere except the
  final output qubits, then reads class probabilities as marginals.

The two agree exactly through v, u and n stages; p layers consuming
qubits that earlier gadgets have already entangled are the approximate
case, and `cmd verify` exists to measure that gap rather than hide it.

Binary weights train through latent real shadows: the forward pass
always consumes sign(latent), gradients pass straight through the sign
as if it were the identity, and latents are clipped to [-1, 1] so they
keep responding to updates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .arch import ArchitectureSpec, ArchitectureError, LayerSpec
from .encoding import amplitude_encoding_fragment
from .neurons import (
    binarize,
    build_p_neuron,
    build_u_neuron,
    build_v_block,
    v_stage_backward,
    v_stage_forward,
)
from .rules import validate_architecture
from .statevec import CircuitFragment, ResourceLimitError, StateVector, rx

CHECKPOINT_FORMAT = "qnnkit-checkpoint"
CHECKPOINT_VERSION = 1

# Guards the p-layer gradient where d sqrt(p(1-p)) / dp blows up at the
# endpoints; forward values stay exact.
_P_GRAD_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; carries the epoch/batch where it happened."""


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@dataclass
class ParameterStore:
    """All trainable state: real angles plus latent shadows of binary weights."""

    v_thetas: np.ndarray  # (blocks, 2 * n_qubits)
    uw_latent: np.ndarray | None  # (u_width, input_dim) or None
    n_thetas: list[np.ndarray] = field(default_factory=list)  # per n-layer
    pw_latent: list[np.ndarray] = field(default_factory=list)  # per p-layer

    def u_weights(self) -> np.ndarray | None:
        return None if self.uw_latent is None else binarize(self.uw_latent)

    def p_weights(self, index: int) -> np.ndarray:
        return binarize(self.pw_latent[index])

    def copy(self) -> "ParameterStore":
        return ParameterStore(
            self.v_thetas.copy(),
            None if self.uw_latent is None else self.uw_latent.copy(),
            [t.copy() for t in self.n_thetas],
            [w.copy() for w in self.pw_latent],
        )

    def arrays(self) -> list[np.ndarray]:
        out = [self.v_thetas]
        if self.uw_latent is not None:
            out.append(self.uw_latent)
        out.extend(self.n_thetas)
        out.extend(self.pw_latent)
        return out


@dataclass
class _Pipeline:
    """Template view of an architecture: v blocks, optional u, prob layers."""

    v_blocks: int
    u_width: int | None
    prob_layers: list[LayerSpec]
    readout: str  # "u", "prob", or "v"


def pipeline(arch: ArchitectureSpec) -> _Pipeline:
    """Check the layer sequence fits the trainable template v+ u? [np]*."""
    arch.validate_shape()
    kinds = [l.kind for l in arch.layers]
    i = 0
    v_blocks = 0
    while i < len(kinds) and kinds[i] == "v":
        v_blocks += arch.layers[i].repeat
        i += 1
    if v_blocks == 0:
        raise ArchitectureError("trainable networks start with at least one v-layer")
    u_width = None
    if i < len(kinds) and kinds[i] == "u":
        u_width = arch.layers[i].width
        i += 1
    prob_layers = arch.layers[i:]
    if any(l.kind not in ("n", "p") for l in prob_layers):
        raise ArchitectureError(
            "after the v/u stage only n- and p-layers are trainable; "
            f"got sequence {kinds}"
        )
    if prob_layers:
        readout = "prob"
    elif u_width is not None:
        readout = "u"
    else:
        readout = "v"
    return _Pipeline(v_blocks, u_width, prob_layers, readout)


def init_parameters(arch: ArchitectureSpec, seed: int = 0) -> ParameterStore:
    """Near-identity angles, random latent signs; deterministic in ``seed``."""
    pipe = pipeline(arch)
    rng = np.random.default_rng(seed)
    n = arch.n_qubits
    v_thetas = rng.normal(0.0, 0.1, size=(pipe.v_blocks, 2 * n))
    uw = None
    width = n
    if pipe.u_width is not None:
        uw = rng.uniform(-1.0, 1.0, size=(pipe.u_width, arch.input_dim))
        width = pipe.u_width
    n_thetas: list[np.ndarray] = []
    pw: list[np.ndarray] = []
    for layer in pipe.prob_layers:
        if layer.kind == "n":
            size = 1 if layer.theta_mode == "shared" else layer.width
            # theta = 0 is a stationary point of the n-layer (the gradient
            # carries a sin(theta) factor), so start slightly off it
            n_thetas.append(rng.normal(0.0, 0.1, size=size))
        else:
            pw.append(rng.uniform(-1.0, 1.0, size=(layer.width, width)))
            width = layer.width
    return ParameterStore(v_thetas, uw, n_thetas, pw)


# ---------------------------------------------------------------------------
# factorized forward
# ---------------------------------------------------------------------------


@dataclass
class ForwardTrace:
    """Everything the backward pass needs: per-stage activations."""

    x_enc: np.ndarray  # (B, input_dim), unit rows
    v_tape: dict
    v_out: np.ndarray  # (B, input_dim)
    stages: list[dict] = field(default_factory=list)
    probs: np.ndarray | None = None  # (B, num_classes)


def _bit_matrix(n: int) -> np.ndarray:
    """(2^n, n) matrix of basis-index bits, qubit 0 = MSB."""
    idx = np.arange(2**n)
    return ((idx[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1).astype(float)


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("cannot amplitude-encode an all-zero input row")
    return x / norms


def forward_batch(
    arch: ArchitectureSpec, params: ParameterStore, X: np.ndarray
) -> ForwardTrace:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != arch.input_dim:
        raise ValueError(f"expected input dim {arch.input_dim}, got {X.shape[1]}")
    pipe = pipeline(arch)
    n = arch.n_qubits

    x_enc = _normalize_rows(X)
    v_out, v_tape = v_stage_forward(x_enc, params.v_thetas)
    trace = ForwardTrace(x_enc=x_enc, v_tape=v_tape, v_out=v_out)

    if pipe.readout == "v":
        bits = _bit_matrix(n)[:, : arch.num_classes]
        trace.probs = (v_out**2) @ bits
        return trace

    if pipe.u_width is not None:
        W = params.u_weights()
        d = v_out @ W.T  # (B, k)
        acts = d**2 / arch.input_dim
        trace.stages.append({"kind": "u", "input": v_out, "dot": d, "output": acts})
    else:
        bits = _bit_matrix(n)
        acts = (v_out**2) @ bits  # probability view of the v stage
        trace.stages.append({"kind": "view", "input": v_out, "output": acts})

    n_idx = 0
    p_idx = 0
    for layer in pipe.prob_layers:
        if layer.kind == "n":
            theta = params.n_thetas[n_idx]
            c = np.cos(theta)
            out = np.sin(theta / 2) ** 2 + acts * c
            trace.stages.append(
                {"kind": "n", "index": n_idx, "input": acts, "output": out}
            )
            n_idx += 1
        else:
            W = params.p_weights(p_idx)  # (k, m)
            # clip guards fp spill just outside [0, 1] (e.g. d^2/N = 1 + eps)
            s = np.sqrt(np.clip(acts * (1.0 - acts), 0.0, None))  # (B, m)
            factors = (1.0 + 2.0 * s[:, None, :] * W[None, :, :]) / 2.0  # (B, k, m)
            out = factors.prod(axis=2)
            trace.stages.append(
                {
                    "kind": "p",
                    "index": p_idx,
                    "input": acts,
                    "s": s,
                    "factors": factors,
                    "output": out,
                }
            )
            p_idx += 1
        acts = out
    trace.probs = acts
    return trace


def forward(arch: ArchitectureSpec, params: ParameterStore, x) -> ForwardTrace:
    """Single-sample forward pass (batch of one)."""
    return forward_batch(arch, params, np.asarray(x, dtype=float)[None, :])


# ---------------------------------------------------------------------------
# loss and backward
# ---------------------------------------------------------------------------


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_batch(probs: np.ndarray, labels: np.ndarray, temperature: float = 0.25) -> float:
    """Mean cross-entropy over softmax(probs / temperature)."""
    labels = np.asarray(labels, dtype=int)
    if np.any((labels < 0) | (labels >= probs.shape[1])):
        raise ValueError("label out of range")
    sm = _softmax(probs / temperature)
    picked = sm[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(np.maximum(picked, 1e-300))))


def loss(trace: ForwardTrace, label: int, temperature: float = 0.25) -> float:
    return loss_batch(trace.probs, np.array([label]), temperature)


def backward_batch(
    arch: ArchitectureSpec,
    params: ParameterStore,
    trace: ForwardTrace,
    labels: np.ndarray,
    temperature: float = 0.25,
) -> ParameterStore:
    """Exact reverse-mode gradients as a ParameterStore; binary weights get straight-through."""
    labels = np.asarray(labels, dtype=int)
    pipe = pipeline(arch)
    B, C = trace.probs.shape
    sm = _softmax(trace.probs / temperature)
    onehot = np.zeros_like(sm)
    onehot[np.arange(B), labels] = 1.0
    grad = (sm - onehot) / (temperature * B)  # dL/dprobs

    grads = params.copy()  # same fields and shapes, zeroed
    for g in grads.arrays():
        g.fill(0.0)

    if pipe.readout == "v":
        bits = _bit_matrix(arch.n_qubits)[:, : arch.num_classes]
        grad_amps = 2.0 * trace.v_out * (grad @ bits.T)
        grads.v_thetas, _ = v_stage_backward(trace.v_tape, grad_amps)
        return grads

    for stage in reversed(trace.stages):
        kind = stage["kind"]
        if kind == "p":
            W = params.p_weights(stage["index"])
            factors = stage["factors"]  # (B, k, m)
            out = stage["output"]  # (B, k)
            # leave-one-out products via prefix/suffix scans (no division,
            # so zero factors are handled exactly)
            k_, m_ = W.shape
            prefix = np.ones_like(factors)
            suffix = np.ones_like(factors)
            np.cumprod(factors[:, :, :-1], axis=2, out=prefix[:, :, 1:])
            np.cumprod(factors[:, :, :0:-1], axis=2, out=suffix[:, :, -2::-1])
            loo = prefix * suffix  # d out_j / d factor_jm
            gfactor = grad[:, :, None] * loo  # (B, k, m)
            p_in = stage["input"]
            s = np.maximum(stage["s"], _P_GRAD_EPS)
            grads.pw_latent[stage["index"]] += np.einsum(
                "bkm,bm->km", gfactor, stage["s"]
            )
            gs = np.einsum("bkm,km->bm", gfactor, W)
            grad = gs * (1.0 - 2.0 * p_in) / (2.0 * s)
        elif kind == "n":
            theta = params.n_thetas[stage["index"]]
            p_in = stage["input"]
            gtheta = grad * (1.0 - 2.0 * p_in) * np.sin(theta) / 2.0
            if theta.size == 1:
                grads.n_thetas[stage["index"]] += gtheta.sum(keepdims=True).reshape(1)
            else:
                grads.n_thetas[stage["index"]] += gtheta.sum(axis=0)
            grad = grad * np.cos(theta)
        elif kind == "u":
            W = params.u_weights()
            d = stage["dot"]
            gd = grad * 2.0 * d / arch.input_dim  # (B, k)
            grads.uw_latent += gd.T @ stage["input"]
            grad = gd @ W  # dL/d v_out
        else:  # probability view of the v stage
            bits = _bit_matrix(arch.n_qubits)
            grad = 2.0 * stage["input"] * (grad @ bits.T)

    gtheta, _ = v_stage_backward(trace.v_tape, grad)
    grads.v_thetas = gtheta
    return grads


def backward(
    arch: ArchitectureSpec,
    params: ParameterStore,
    trace: ForwardTrace,
    label: int,
    temperature: float = 0.25,
) -> ParameterStore:
    return backward_batch(arch, params, trace, np.array([label]), temperature)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.9
    temperature: float = 0.25
    lr_decay: float = 1.0  # multiplicative per-epoch decay
    keep_best: bool = False  # return the best-test-accuracy epoch's weights
    seed: int = 0
    verbose: bool = False

    def to_dict(self) -> dict:
        return dict(
            epochs=self.epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            momentum=self.momentum,
            temperature=self.temperature,
            lr_decay=self.lr_decay,
            keep_best=self.keep_best,
            seed=self.seed,
        )


def predict_probs(arch, params, X) -> np.ndarray:
    return forward_batch(arch, params, X).probs


def accuracy(arch, params, X, y) -> float:
    probs = predict_probs(arch, params, X)
    return float(np.mean(np.argmax(probs, axis=1) == np.asarray(y)))


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

    Refuses architectures the rule engine rejects. Returns the trained
    parameters and one metrics row per epoch.
    """
    config = config or TrainConfig()
    report = validate_architecture(arch)
    if not report.passed:
        raise ArchitectureError(
            "refusing to train an infeasible architecture:\n" + report.render_text()
        )
    if len(train_images) == 0:
        raise ValueError("empty training set")

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
        if config.verbose:
            msg = (
                f"epoch {epoch:3d}  loss {row['train_loss']:.4f}  "
                f"train {row['train_accuracy']:.4f}"
            )
            if "test_accuracy" in row:
                msg += f"  test {row['test_accuracy']:.4f}"
            print(msg)
    if config.keep_best and best_params is not None:
        params = best_params
    return params, metrics


# ---------------------------------------------------------------------------
# whole-network circuit
# ---------------------------------------------------------------------------


@dataclass
class NetworkCircuit:
    fragment: CircuitFragment
    n_qubits: int
    output_qubits: list[int]

    @property
    def mid_circuit_measurements(self) -> int:
        # Fragments carry unitary gates only; measurement happens once, on
        # the output qubits, after the fragment has run.
        return 0


def expected_qubit_count(arch: ArchitectureSpec) -> int:
    """Closed-form register size of the compiled network."""
    pipe = pipeline(arch)
    n = arch.n_qubits
    total = pipe.u_width * (n + 1) if pipe.u_width is not None else n
    total += sum(l.width for l in pipe.prob_layers if l.kind == "p")
    return total


def build_network_circuit(
    arch: ArchitectureSpec,
    params: ParameterStore,
    x,
    max_qubits: int = 24,
) -> NetworkCircuit:
    """Compile encoding + every gadget into one measurement-free fragment.

    Each u neuron re-prepares the encoded input and v stage on its own
    register (quantum states cannot be copied, but their known classical
    preparation can be repeated), so u outputs stay mutually independent.
    """
    x = np.asarray(x, dtype=float)
    pipe = pipeline(arch)
    n = arch.n_qubits
    total = expected_qubit_count(arch)
    if total > max_qubits:
        raise ResourceLimitError(
            f"compiled network needs {total} qubits, cap is {max_qubits}"
        )

    prep, _ = amplitude_encoding_fragment(x)
    v_stage = CircuitFragment(n)
    for b in range(params.v_thetas.shape[0]):
        v_stage = v_stage.compose(build_v_block(n, params.v_thetas[b]))
    register = prep.compose(v_stage)

    frag = CircuitFragment(total)
    if pipe.u_width is not None:
        k = pipe.u_width
        W = params.u_weights()
        stage_qubits = []
        for j in range(k):
            frag = frag.compose(register.shifted(j * n))
            gadget = build_u_neuron(n, W[j])
            mapping = {q: j * n + q for q in range(n)}
            mapping[n] = k * n + j
            frag = frag.compose(gadget.remapped(mapping, total))
            stage_qubits.append(k * n + j)
        next_free = k * n + k
    else:
        frag = frag.compose(register)
        stage_qubits = list(range(n))
        next_free = n

    n_idx = 0
    p_idx = 0
    for layer in pipe.prob_layers:
        if layer.kind == "n":
            theta = params.n_thetas[n_idx]
            for c, q in enumerate(stage_qubits):
                angle = theta[0] if theta.size == 1 else theta[c]
                frag.append(rx(angle), q)
            n_idx += 1
        else:
            W = params.p_weights(p_idx)
            m = len(stage_qubits)
            new_qubits = []
            for j in range(layer.width):
                gadget = build_p_neuron(m, W[j])
                mapping = {q: stage_qubits[q] for q in range(m)}
                mapping[m] = next_free
                frag = frag.compose(gadget.remapped(mapping, total))
                new_qubits.append(next_free)
                next_free += 1
            stage_qubits = new_qubits
            p_idx += 1

    if pipe.readout == "v":
        stage_qubits = stage_qubits[: arch.num_classes]
    return NetworkCircuit(frag, total, stage_qubits)


def circuit_inference(
    arch: ArchitectureSpec,
    params: ParameterStore,
    x,
    max_qubits: int = 24,
) -> np.ndarray:
    """Class probabilities from exact simulation of the compiled network."""
    x = np.asarray(x, dtype=float)
    norm = np.linalg.norm(x)
    if norm == 0:
        raise ValueError("cannot amplitude-encode an all-zero input")
    circuit = build_network_circuit(arch, params, x / norm, max_qubits)
    state = StateVector(circuit.n_qubits)
    state.run(circuit.fragment)
    return np.array([state.marginal_prob_one(q) for q in circuit.output_qubits])


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, arch: ArchitectureSpec, params: ParameterStore) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "architecture": {
            "input_dim": arch.input_dim,
            "num_classes": arch.num_classes,
            "layers": [
                {
                    "kind": l.kind,
                    "width": l.width,
                    "repeat": l.repeat,
                    "theta_mode": l.theta_mode,
                }
                for l in arch.layers
            ],
        },
        "parameters": {
            "v_thetas": params.v_thetas.tolist(),
            "uw_latent": None if params.uw_latent is None else params.uw_latent.tolist(),
            "n_thetas": [t.tolist() for t in params.n_thetas],
            "pw_latent": [w.tolist() for w in params.pw_latent],
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


def load_checkpoint(path) -> tuple[ArchitectureSpec, ParameterStore]:
    """ValueError unless each parameter has the shape init_parameters gives."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')}")
    arch_d = payload["architecture"]
    arch = ArchitectureSpec(
        arch_d["input_dim"],
        arch_d["num_classes"],
        [
            LayerSpec(l["kind"], l["width"], l["repeat"], l["theta_mode"])
            for l in arch_d["layers"]
        ],
    )
    arch.validate_shape()
    p = payload["parameters"]
    params = ParameterStore(
        np.array(p["v_thetas"], dtype=float),
        None if p["uw_latent"] is None else np.array(p["uw_latent"], dtype=float),
        [np.array(t, dtype=float) for t in p["n_thetas"]],
        [np.array(w, dtype=float) for w in p["pw_latent"]],
    )
    want = init_parameters(arch)
    shapes = [a.shape for a in params.arrays()]
    needed = [a.shape for a in want.arrays()]
    if shapes != needed or (params.uw_latent is None) != (want.uw_latent is None):
        raise ValueError(f"parameter shapes {shapes} do not fit {arch.name}, which needs {needed}")
    return arch, params


# ---------------------------------------------------------------------------
# the path-6 counterexample
# ---------------------------------------------------------------------------


def path6_demo() -> dict:
    """Why entangled amplitudes must not feed probability consumers.

    A Bell pair has per-qubit marginals (1/2, 1/2), so the factorized
    p-neuron model predicts g(1/2)^2 = 1. The exact gadget sees the joint
    state and yields 1/2: a 0.5 probability error from one junction.
    """
    from .neurons import p_forward
    from .statevec import CX, H, new_state

    w = np.array([1.0, 1.0])
    state = new_state(3).apply(H, [0]).apply(CX, [0, 1])
    marginals = np.array([state.marginal_prob_one(0), state.marginal_prob_one(1)])
    factorized = p_forward(marginals, w)
    state.run(CircuitFragment(3).compose(build_p_neuron(2, w)))
    exact = state.marginal_prob_one(2)
    return {
        "factorized": float(factorized),
        "exact": float(exact),
        "deviation": float(abs(factorized - exact)),
    }
