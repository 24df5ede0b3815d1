"""Mixed-network model: parameters, forward/backward, training, and the
single measured-only-at-the-end circuit.

Two semantics coexist on purpose:

- The *factorized* forward pass evaluates the network layer by layer on
  classical vectors (amplitudes through the v stage, per-qubit
  probabilities afterwards). It is the training-time semantics and is
  what every accuracy number refers to.
- ``build_network_circuit`` compiles the whole network into one circuit
  with a fresh register per u neuron and no measurement anywhere except
  the final output qubits. ``circuit_inference`` reads that circuit's
  output marginals by exact register-factored simulation: each u
  register runs alone on n + 1 qubits and hands on only a two-qubit
  purification of its ancilla. ``max_qubits`` therefore bounds
  ``simulated_qubit_count`` (for k u neurons the larger of n + 1 and
  2k + the p widths), not the compiled register.

Each factorized stage runs its neuron's batched closed form from
``neurons`` (the same forms criterion 1 checks against the gadgets), so
the two agree exactly through v, u and n stages (a run of n layers is one
stage: its RX gates compose to one RX with the summed angle); p layers
consuming qubits that earlier gadgets have already entangled are the
approximate case, and `qnnkit verify` exists to measure that gap rather
than hide it.

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
    n_forward_batch,
    p_forward_batch,
    u_forward_batch,
    v_stage_backward,
    v_stage_forward,
)
from .rules import validate_architecture
from .statevec import DEFAULT_MAX_QUBITS, CircuitFragment, ResourceLimitError, StateVector
from .statevec import rx, with_zeros

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


def pipeline(arch: ArchitectureSpec) -> _Pipeline:
    """Check the layer sequence fits the trainable template v+ u? [np]*."""
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
    return _Pipeline(v_blocks, u_width, prob_layers)


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
            # theta = 0 is a stationary point of the n-layer (the gradient
            # carries a sin(theta) factor), so start slightly off it
            n_thetas.append(rng.normal(0.0, 0.1, size=layer.width))
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

    v_out, v_tape = v_stage_forward(_normalize_rows(X), params.v_thetas)
    trace = ForwardTrace(v_tape=v_tape, v_out=v_out)

    if pipe.u_width is not None:
        acts, d = u_forward_batch(v_out, params.u_weights())
        trace.stages.append({"kind": "u", "input": v_out, "dot": d, "output": acts})
    else:
        # probability view of the v stage; with no layer after it, the
        # first num_classes qubits are the class outputs
        bits = _bit_matrix(arch.n_qubits)
        if not pipe.prob_layers:
            bits = bits[:, : arch.num_classes]
        acts = (v_out**2) @ bits
        trace.stages.append({"kind": "view", "input": v_out, "output": acts})

    n_idx = p_idx = 0
    for layer in pipe.prob_layers:
        stage = {"kind": layer.kind, "input": acts}
        if layer.kind == "n":
            theta, indices = params.n_thetas[n_idx], [n_idx]
            if trace.stages[-1]["kind"] == "n":
                # RX(a) RX(b) = RX(a + b): a run of n layers is one stage
                # whose angle is the sum of the run's angles
                run = trace.stages.pop()
                stage["input"] = run["input"]
                theta, indices = run["theta"] + theta, run["indices"] + indices
            stage.update(indices=indices, theta=theta, output=n_forward_batch(stage["input"], theta))
            n_idx += 1
        else:
            out, s, factors = p_forward_batch(acts, params.p_weights(p_idx))
            stage.update(index=p_idx, output=out, s=s, factors=factors)
            p_idx += 1
        trace.stages.append(stage)
        acts = stage["output"]
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


def backward_batch(
    arch: ArchitectureSpec,
    params: ParameterStore,
    trace: ForwardTrace,
    labels: np.ndarray,
    temperature: float = 0.25,
) -> ParameterStore:
    """Exact reverse-mode gradients as a ParameterStore; binary weights get straight-through."""
    labels = np.asarray(labels, dtype=int)
    B, C = trace.probs.shape
    sm = _softmax(trace.probs / temperature)
    onehot = np.zeros_like(sm)
    onehot[np.arange(B), labels] = 1.0
    grad = (sm - onehot) / (temperature * B)  # dL/dprobs

    grads = params.copy()  # same fields and shapes, zeroed
    for g in grads.arrays():
        g.fill(0.0)

    for stage in reversed(trace.stages):
        kind = stage["kind"]
        if kind == "p":
            W = params.p_weights(stage["index"])
            factors = stage["factors"]  # (B, k, m)
            # leave-one-out products via prefix/suffix scans (no division,
            # so zero factors are handled exactly)
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
            theta = stage["theta"]
            gtheta = (grad * (1.0 - 2.0 * stage["input"]) * np.sin(theta) / 2.0).sum(axis=0)
            for i in stage["indices"]:  # each angle of the run moves the summed angle
                grads.n_thetas[i] += gtheta
            grad = grad * np.cos(theta)
        elif kind == "u":
            W = params.u_weights()
            d = stage["dot"]
            gd = grad * 2.0 * d / arch.input_dim  # (B, k)
            grads.uw_latent += gd.T @ stage["input"]
            grad = gd @ W  # dL/d v_out
        else:  # probability view of the v stage
            bits = _bit_matrix(arch.n_qubits)[:, : stage["output"].shape[1]]
            grad = 2.0 * stage["input"] * (grad @ bits.T)

    gtheta, _ = v_stage_backward(trace.v_tape, grad)
    grads.v_thetas = gtheta
    return grads


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


def accuracy(arch, params, X, y) -> float:
    probs = forward_batch(arch, params, X).probs
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


def _p_width(pipe: _Pipeline) -> int:
    return sum(l.width for l in pipe.prob_layers if l.kind == "p")


def expected_qubit_count(arch: ArchitectureSpec) -> int:
    """Closed-form register size of the compiled network."""
    pipe = pipeline(arch)
    n = arch.n_qubits
    total = pipe.u_width * (n + 1) if pipe.u_width is not None else n
    return total + _p_width(pipe)


def simulated_qubit_count(arch: ArchitectureSpec) -> int:
    """Closed-form width of the widest register ``circuit_inference`` simulates.

    With a u layer: the larger of one u register (n + 1 qubits) and the
    n/p step (two qubits per purified u ancilla, plus the p outputs).
    Without one: the v register widened by the p outputs.
    """
    pipe = pipeline(arch)
    n = arch.n_qubits
    if pipe.u_width is None:
        return n + _p_width(pipe)
    return max(n + 1, 2 * pipe.u_width + _p_width(pipe))


def _input_register(params: ParameterStore, x) -> CircuitFragment:
    """Amplitude-encoding preparation followed by every v block, on n qubits."""
    register, _ = amplitude_encoding_fragment(np.asarray(x, dtype=float))
    for theta in params.v_thetas:
        register.extend(build_v_block(register.qubit_span, theta))
    return register


def _append_prob_layers(
    frag: CircuitFragment,
    arch: ArchitectureSpec,
    params: ParameterStore,
    stage_qubits: list[int],
) -> list[int]:
    """Append the n and p layers' gates to ``frag``, on a register laid out by the caller.

    ``stage_qubits`` hold the stage the first n/p layer reads. n layers
    rotate their inputs in place; the p neurons write the top qubits of
    the fragment's span, one each, in order. Returns the output qubits.
    """
    pipe = pipeline(arch)
    next_free = frag.qubit_span - _p_width(pipe)
    n_idx = p_idx = 0
    for layer in pipe.prob_layers:
        if layer.kind == "n":
            theta = params.n_thetas[n_idx]
            for c, q in enumerate(stage_qubits):
                frag.append(rx(theta[c]), q)
            n_idx += 1
        else:
            W = params.p_weights(p_idx)
            m = len(stage_qubits)
            new_qubits = []
            for j in range(layer.width):
                mapping = {q: stage_qubits[q] for q in range(m)}
                mapping[m] = next_free
                frag.extend(build_p_neuron(m, W[j]), mapping)
                new_qubits.append(next_free)
                next_free += 1
            stage_qubits = new_qubits
            p_idx += 1
    if pipe.u_width is None and not pipe.prob_layers:
        stage_qubits = stage_qubits[: arch.num_classes]
    return stage_qubits


def build_network_circuit(arch: ArchitectureSpec, params: ParameterStore, x) -> NetworkCircuit:
    """Compile encoding + every gadget into one measurement-free fragment.

    Each u neuron re-prepares the encoded input and v stage on its own
    register (quantum states cannot be copied, but their known classical
    preparation can be repeated), so u outputs stay mutually independent.
    """
    pipe = pipeline(arch)
    n = arch.n_qubits
    total = expected_qubit_count(arch)
    register = _input_register(params, x)
    frag = CircuitFragment(total)
    if pipe.u_width is not None:
        k = pipe.u_width
        for j, w in enumerate(params.u_weights()):
            mapping = {q: j * n + q for q in range(n)}
            frag.extend(register, mapping)
            mapping[n] = k * n + j
            frag.extend(build_u_neuron(n, w), mapping)
        stage_qubits = list(range(k * n, k * n + k))
    else:
        frag.extend(register)
        stage_qubits = list(range(n))
    outputs = _append_prob_layers(frag, arch, params, stage_qubits)
    return NetworkCircuit(frag, total, outputs)


def circuit_inference(
    arch: ArchitectureSpec,
    params: ParameterStore,
    x,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> np.ndarray:
    """Class probabilities from exact, register-factored simulation of the
    network that ``build_network_circuit`` compiles.

    After its u gadget, a u register is touched only through its
    ancilla. So the encoded input and the v stage run once on n qubits;
    each u neuron runs alone on that state plus its ancilla; and the
    register is replaced by the two-qubit Schmidt purification
    ``U diag(s)`` of its ancilla, from the SVD of the 2 x 2^n
    ancilla-by-rest amplitude matrix. The n and p layers then run on the
    k purified pairs (ancilla first) plus the p outputs. This is exact:
    the purification differs from the register by an isometry on qubits
    no later gate touches, so every output marginal is unchanged. Without
    a u layer, the v register widened by the p outputs runs the n/p step.
    ``max_qubits`` caps the widest register simulated, which is
    ``simulated_qubit_count(arch)``.
    """
    pipe = pipeline(arch)
    width = simulated_qubit_count(arch)
    if width > max_qubits:
        raise ResourceLimitError(
            f"factored simulation needs {width} qubits, cap is {max_qubits}"
        )
    n = arch.n_qubits
    psi = StateVector(n).run(_input_register(params, x)).amps
    if pipe.u_width is None:
        amps, stage_qubits = psi, list(range(n))
    else:
        amps = np.ones(1, dtype=complex)
        for w in params.u_weights():
            register = with_zeros(psi, 1).run(build_u_neuron(n, w))
            # rows: the ancilla (the last qubit) at 0 and 1; columns: the n others
            u, s, _ = np.linalg.svd(register.amps.reshape(-1, 2).T, full_matrices=False)
            amps = np.kron(amps, (u * s).reshape(-1))
        stage_qubits = list(range(0, 2 * pipe.u_width, 2))
    state = with_zeros(amps, _p_width(pipe))
    tail = CircuitFragment(state.n_qubits)
    outputs = _append_prob_layers(tail, arch, params, stage_qubits)
    return state.run(tail).marginals(outputs)


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
                {"kind": l.kind, "width": l.width, "repeat": l.repeat} for l in arch.layers
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
    """ValueError unless each parameter is finite and has the shape init_parameters gives."""
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
        [LayerSpec(l["kind"], l["width"], l["repeat"]) for l in arch_d["layers"]],
    )
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
    if not all(np.all(np.isfinite(a)) for a in params.arrays()):
        raise ValueError("a parameter value is not finite")
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
    state.run(build_p_neuron(2, w))
    exact = state.marginal_prob_one(2)
    return {
        "factorized": float(factorized),
        "exact": float(exact),
        "deviation": float(abs(factorized - exact)),
    }
