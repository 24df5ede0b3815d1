"""Dense state-vector simulator.

Conventions used across the package:

- Qubit 0 is the *most significant* bit of the basis index, so for a
  3-qubit register the basis state |q0 q1 q2> = |110> has index 6.
  Equivalently, ``amps.reshape([2] * n)`` puts qubit q on axis q.
- Rotation matrices follow the half-angle convention:
  ``RY(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]`` and
  ``RX(t) = [[cos t/2, -i sin t/2], [-i sin t/2, cos t/2]]``.

The gate kernels ``apply_1q``, ``controlled_x`` and ``phase_flip`` work
in place on a batch of states, a ``(B, 2^n)`` array of any dtype, and
cost O(2^n) per state, never O(4^n); a StateVector is a batch of one
complex state. The X-type kernel ``controlled_x`` (a swap) and the
Z-type ``phase_flip`` (a sign flip) take the same (controls,
polarities, target), the gate's own polarities, so both are exact.
The trainer calls only ``controlled_x``, for its V block tables. It
runs its batch amplitude-major, as a C-ordered (2^n, B) transpose, and
each RY there is one row gather through an n x 2^n partner table
followed by ``apply_1q``'s products and one sum, so the bytes are
``apply_1q``'s. ``apply_1q`` on the batch itself was 1.8-2.7x slower
for the v stage (n = 4-6, B = 32, 2 blocks), and the simulator would
need 704 MiB for the table at 22 qubits. A StateVector is
exclusively owned while mutated; nothing here shares state between threads.

A CircuitFragment is built one way: ``append`` is where every gate
joins, and it checks the gate's qubits once, with the same
``check_qubits`` that ``StateVector.apply`` runs, so ``StateVector.run``
does not check them again. ``extend`` splices one
fragment into another in place, renaming qubits through ``append`` when
given a mapping.

``fuse`` compiles a fragment that will run many times into a
``FusedProgram``. Each greedy run of gates whose qubits fit
``FUSION_WIDTH`` (W = 4) adjacent qubits becomes one read-only
2^W x 2^W matrix, applied to a whole (B, 2^n) batch as one ``np.matmul``
on ``a.reshape(B * 2**lo, 2**W, -1)``; a gate wider than the window
stays one kernel step. Fusing costs more than one gate-by-gate run, so
it pays only where the same gates run on many states, as in
``model.circuit_inference_batch``. Only when it builds its one-entry
memo, once per parameter set, does that oracle fuse its parameter-only
parts and run them on basis states: the v stage and u gadgets on the
2^n encoded basis states, for its pre-tail map, and each output's light
cone of its n/p tail, for that output's observable. Its rows then run
no program and no gate kernel: their encoding is
``encoding.amplitude_encoding_batch``, no gates at all, and their
states are one product with the map.
``StateVector.run`` stays gate by gate, for circuits that run once, such
as the gadgets and compiled circuits of the tests and demos, and tests
hold fused programs and the gate-free encoding to it. W = 5 measured no
faster on the oracle's 5- to 10-qubit registers and slower on 20 qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_SQRT2_INV = 1.0 / math.sqrt(2.0)

# Controlled kinds: the X-type ones swap the target's pair, the Z-type ones negate its 1.
_Z_KINDS = ("Z", "CZ")
_CONTROLLED = ("X", "CX", "MCX") + _Z_KINDS


@dataclass(frozen=True)
class Gate:
    """One primitive gate: H, RX(t) or RY(t), or an X-type (X, CX, MCX) or
    Z-type (Z, CZ) gate with its control ``polarities``: entry i is the
    value (0 or 1) control i must hold for the gate to fire on the target,
    the last qubit. X and Z hold (), CX and CZ (1,). Gadgets pick the
    pattern that fires (|0...0> for u, the weight signs for p) without
    X-conjugation at the call site.
    """

    kind: str
    theta: float | None = None
    polarities: tuple[int, ...] | None = None

    @property
    def arity(self) -> int:
        if self.kind in ("H", "RX", "RY"):
            return 1
        if self.kind in _CONTROLLED:
            return len(self.polarities) + 1
        raise ValueError(f"unknown gate kind {self.kind!r}")

    def matrix(self) -> np.ndarray:
        """Dense unitary of this gate on its own qubits (2^arity square).

        The controls come first, target last, in the order of the qubit
        list passed to ``apply``.
        """
        if self.kind in ("H", "RX", "RY"):
            return np.array(_entries(self), dtype=complex).reshape(2, 2)
        k = self.arity - 1  # which checks the kind
        m = np.eye(2 ** (k + 1), dtype=complex)
        fire = sum(p << (k - i) for i, p in enumerate(self.polarities))  # target 0
        if self.kind in _Z_KINDS:
            m[fire + 1, fire + 1] = -1
        else:
            m[fire : fire + 2, fire : fire + 2] = [[0, 1], [1, 0]]
        return m


# Gate constructors; the fixed gates are singletons.
H = Gate("H")
X = Gate("X", polarities=())
Z = Gate("Z", polarities=())
CX = Gate("CX", polarities=(1,))
CZ = Gate("CZ", polarities=(1,))


def rx(theta: float) -> Gate:
    return Gate("RX", float(theta))


def ry(theta: float) -> Gate:
    return Gate("RY", float(theta))


def _controlled(kind: str, polarities) -> Gate:
    pol = tuple(int(p) for p in polarities)
    if not pol:
        raise ValueError(f"{kind} needs at least one control")
    if any(p not in (0, 1) for p in pol):
        raise ValueError(f"polarities must be 0/1, got {pol}")
    return Gate(kind, polarities=pol)


def mcx(polarities: tuple[int, ...] | list[int]) -> Gate:
    """Multi-controlled X; fires when every control matches its polarity."""
    return _controlled("MCX", polarities)


def mcz(polarities: tuple[int, ...] | list[int]) -> Gate:
    """Multi-controlled Z, of kind CZ; fires when every control matches its polarity."""
    return _controlled("CZ", polarities)


def check_qubits(gate: Gate, qubits: tuple[int, ...], n: int) -> None:
    """ValueError unless ``qubits`` are ``gate.arity`` distinct indices in 0..n-1."""
    if len(qubits) != gate.arity:
        raise ValueError(f"{gate.kind} takes {gate.arity} qubit(s), got {len(qubits)}")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubit indices: {qubits}")
    if min(qubits) < 0 or max(qubits) >= n:
        raise ValueError(f"qubit index out of range for a {n}-qubit span: {qubits}")


@dataclass
class CircuitFragment:
    """Ordered gate list over ``qubit_span`` qubits, checked once on append.

    ``append`` is the only way a gate joins, so every op fits the span;
    ``extend`` splices another fragment in place. Fragments hold unitary
    gates only -- there is no measurement instruction, which is what
    makes 'no mid-circuit measurement' statically checkable.
    """

    qubit_span: int
    ops: list[tuple[Gate, tuple[int, ...]]] = field(default_factory=list, init=False)

    def append(self, gate: Gate, *qubits: int) -> "CircuitFragment":
        check_qubits(gate, qubits, self.qubit_span)
        self.ops.append((gate, qubits))
        return self

    def extend(
        self, other: "CircuitFragment", mapping: dict[int, int] | None = None
    ) -> "CircuitFragment":
        """Append ``other``'s gates in place, its qubit q renamed to ``mapping.get(q, q)``.

        Without a mapping the already-checked gates are concatenated, so
        ``other`` may not span more qubits than this fragment.
        """
        if mapping is None:
            if other.qubit_span > self.qubit_span:
                raise ValueError(
                    f"fragment spans {other.qubit_span} qubits, this one {self.qubit_span}"
                )
            self.ops.extend(other.ops)
        else:
            for gate, qubits in other.ops:
                self.append(gate, *(mapping.get(q, q) for q in qubits))
        return self


# Batched gate kernels: each row of ``a`` is one state, mutated in place.


def apply_1q(a: np.ndarray, q: int, m00, m01, m10, m11) -> None:
    """Apply the 2x2 matrix [[m00, m01], [m10, m11]] to qubit ``q``."""
    v = a.reshape(a.shape[0], 2**q, 2, -1)
    x0, x1 = v[:, :, 0], v[:, :, 1]
    # fresh temporaries: in-place ops on the strided x0, x1 are slower on small batches
    new0 = m00 * x0
    new0 += m01 * x1
    new1 = m10 * x0
    new1 += m11 * x1
    x0[...] = new0
    x1[...] = new1


def _axes(a: np.ndarray, fixed) -> tuple[np.ndarray, list]:
    """One axis per qubit, and an index pinning each (qubit, bit) in ``fixed``."""
    n = a.shape[1].bit_length() - 1
    sel: list = [slice(None)] * (n + 1)
    for q, bit in fixed:
        sel[1 + q] = bit
    return a.reshape((a.shape[0],) + (2,) * n), sel


def controlled_x(a: np.ndarray, controls, polarities, target: int) -> None:
    """Flip ``target`` where control i holds ``polarities[i]`` (X, CX, MCX)."""
    view, sel = _axes(a, zip(controls, polarities))
    sel[1 + target] = slice(None, None, -1)
    swapped = view[tuple(sel)]
    sel[1 + target] = slice(None)
    view[tuple(sel)] = swapped  # numpy copies an overlapping source first


def phase_flip(a: np.ndarray, controls, polarities, target: int) -> None:
    """Negate where ``target`` is 1 and control i holds ``polarities[i]`` (Z, CZ)."""
    view, sel = _axes(a, [*zip(controls, polarities), (target, 1)])
    view[tuple(sel)] *= -1


def ry_entries(theta: float) -> tuple[float, float, float, float]:
    """The 2x2 entries of RY(theta), in ``apply_1q`` order."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return c, -s, s, c


def _entries(gate: Gate) -> tuple:
    """The 2x2 entries of H, RX or RY as scalars, real where they can be."""
    if gate.kind == "RY":
        return ry_entries(gate.theta)
    if gate.kind == "RX":
        c, s = math.cos(gate.theta / 2), math.sin(gate.theta / 2)
        return c, -1j * s, -1j * s, c
    r = _SQRT2_INV
    return r, r, r, -r


def apply_gate(a: np.ndarray, gate: Gate, qubits: tuple[int, ...]) -> None:
    """Apply ``gate`` at checked ``qubits`` to every row of ``a`` through its kernel."""
    if gate.kind in ("H", "RX", "RY"):
        apply_1q(a, qubits[0], *_entries(gate))
    else:
        kernel = phase_flip if gate.kind in _Z_KINDS else controlled_x
        kernel(a, qubits[:-1], gate.polarities, qubits[-1])


class StateVector:
    """2^n complex amplitudes over n qubits, mutated in place by gates."""

    def __init__(self, n_qubits: int, amps: np.ndarray | None = None):
        self.n_qubits = n_qubits
        if amps is None:
            amps = np.zeros(2**n_qubits, dtype=complex)
            amps[0] = 1.0
        else:
            amps = np.asarray(amps, dtype=complex)
            if amps.shape != (2**n_qubits,):
                raise ValueError(
                    f"need {2**n_qubits} amplitudes for {n_qubits} qubits, "
                    f"got shape {amps.shape}"
                )
        self.amps = amps

    # -- gate application -------------------------------------------------

    def apply(self, gate: Gate, qubits: tuple[int, ...] | list[int]) -> "StateVector":
        """Apply ``gate`` at ``qubits`` (controls first, target last) in place."""
        qubits = tuple(qubits)
        check_qubits(gate, qubits, self.n_qubits)
        apply_gate(self.amps[None], gate, qubits)
        return self

    def run(self, fragment: CircuitFragment) -> "StateVector":
        if fragment.qubit_span > self.n_qubits:
            raise ValueError(
                f"fragment spans {fragment.qubit_span} qubits, register has "
                f"{self.n_qubits}"
            )
        amps = self.amps[None]
        for gate, qubits in fragment.ops:  # checked once, by CircuitFragment.append
            apply_gate(amps, gate, qubits)
        return self

    # -- readout ----------------------------------------------------------

    def marginals(self, qubits) -> np.ndarray:
        """Pr[measuring 1] of each listed qubit, from one pass over |amp|^2."""
        return marginals_batch(self.amps[None], qubits)[0]

    def marginal_prob_one(self, qubit: int) -> float:
        """Pr[measuring ``qubit`` as 1]."""
        return float(self.marginals([qubit])[0])


def marginals_batch(a: np.ndarray, qubits) -> np.ndarray:
    """(B, len(qubits)): Pr[measuring 1] of each listed qubit in each row of
    the (B, 2^n) batch ``a``, from one pass over |amp|^2."""
    n = a.shape[1].bit_length() - 1
    probs = (a * a.conj()).real
    out = []
    for q in qubits:
        if q < 0 or q >= n:
            raise ValueError(f"qubit {q} out of range 0..{n - 1}")
        # the half where q reads 1
        out.append(probs.reshape(len(a), 2**q, 2, a.shape[1] >> (q + 1))[:, :, 1].sum(axis=(1, 2)))
    return np.array(out).reshape(len(out), len(a)).T


def insert_zeros(a: np.ndarray, extra: int) -> np.ndarray:
    """Each (R, C) state of the (B, R, C) batch ``a`` with ``extra`` fresh
    qubits in |0...0> between its row and column qubits, as (B, R 2^extra C)
    complex amplitudes; C = 1 puts them after a vector's qubits."""
    out = np.zeros((a.shape[0], a.shape[1], 1 << extra, a.shape[2]), dtype=complex)
    out[:, :, 0] = a
    return out.reshape(len(a), -1)


def with_zeros(amps, extra: int) -> StateVector:
    """A register holding ``amps`` and ``extra`` fresh qubits in |0...0>: after
    a vector's qubits, or between a matrix's row and column qubits."""
    amps = np.asarray(amps)
    out = insert_zeros(amps.reshape(1, len(amps), -1), extra)[0]
    return StateVector(out.size.bit_length() - 1, out)


# Gate fusion: qubits per dense block, so a block is a 2^W x 2^W matrix.
FUSION_WIDTH = 4


@dataclass(frozen=True)
class FusedProgram:
    """A fragment's gates as a few steps, for a circuit that runs many times.

    Each step is either ``(lo, matrix)``, the product of a run of gates
    on the window of qubits lo..lo+W-1 as one read-only 2^W x 2^W matrix,
    or ``(gate, qubits)``, one gate wider than the window, which runs
    through its kernel.
    """

    qubit_span: int
    steps: tuple

    def run(self, a: np.ndarray) -> np.ndarray:
        """The (B, 2^n) batch of states ``a`` after every step, for any
        n >= the span: one ``np.matmul`` per block over all rows. A gate
        step changes ``a`` in place, so pass states the caller owns."""
        n = a.shape[1].bit_length() - 1
        if self.qubit_span > n:
            raise ValueError(f"program spans {self.qubit_span} qubits, register has {n}")
        rows = len(a)
        for head, body in self.steps:
            if isinstance(head, Gate):
                apply_gate(a, head, body)
            else:
                size = body.shape[0]
                blocks = a.reshape(rows << head, size, (a.shape[1] >> head) // size)
                a = np.matmul(body, blocks).reshape(rows, -1)
        return a


def fuse(fragment: CircuitFragment) -> FusedProgram:
    """Fuse ``fragment`` greedily: each run of gates whose qubits fit
    W adjacent qubits becomes one block, and a wider gate (the MCX of a
    u or p gadget, or a wide u sign-flip CZ) stays a step.

    A block's matrix is built by running its gates through the same
    kernels on the 2^W basis states.
    """
    w = min(FUSION_WIDTH, fragment.qubit_span)
    steps: list = []
    block: list = []
    lo = hi = 0

    def close() -> None:
        start = min(lo, fragment.qubit_span - w)
        rows = np.eye(2**w, dtype=complex)  # row i becomes U e_i, so U is its transpose
        for gate, qubits in block:
            apply_gate(rows, gate, tuple(q - start for q in qubits))
        matrix = rows.T.copy()
        matrix.flags.writeable = False
        steps.append((start, matrix))
        block.clear()

    for gate, qubits in fragment.ops:
        first, last = min(qubits), max(qubits)
        if block and max(hi, last) - min(lo, first) < w:
            block.append((gate, qubits))
            lo, hi = min(lo, first), max(hi, last)
            continue
        if block:
            close()
        if last - first < w:
            block.append((gate, qubits))
            lo, hi = first, last
        else:
            steps.append((gate, qubits))
    if block:
        close()
    return FusedProgram(fragment.qubit_span, tuple(steps))
