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
cost O(2^n) per state, never O(4^n). The simulator and the trainer share
them: a StateVector is a batch of one complex state, and the trainer's
V stage runs them on real batches. A StateVector is exclusively owned
while mutated; nothing here shares state between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Hard ceiling unless the caller raises it explicitly; 24 qubits is
# already a 256 MiB complex array.
DEFAULT_MAX_QUBITS = 24

_SQRT2_INV = 1.0 / math.sqrt(2.0)


class ResourceLimitError(Exception):
    """Register would exceed the configured qubit cap."""


@dataclass(frozen=True)
class Gate:
    """One primitive gate: H, X, Z, RX(t), RY(t), CX, CZ or MCX.

    ``polarities`` applies to MCX only: entry i is the value (0 or 1)
    control i must hold for the target flip to fire. This lets gadgets
    trigger on |0...0> without X-conjugation at the call site.
    """

    kind: str
    theta: float | None = None
    polarities: tuple[int, ...] | None = None

    @property
    def arity(self) -> int:
        if self.kind in ("H", "X", "Z", "RX", "RY"):
            return 1
        if self.kind in ("CX", "CZ"):
            return 2
        if self.kind == "MCX":
            return len(self.polarities) + 1
        raise ValueError(f"unknown gate kind {self.kind!r}")

    def inverse(self) -> "Gate":
        if self.kind in ("RX", "RY"):
            return Gate(self.kind, -self.theta)
        return self  # H, X, Z, CX, CZ, MCX are involutions

    def matrix(self) -> np.ndarray:
        """Dense unitary of this gate on its own qubits (2^arity square).

        For CX/CZ/MCX the control qubits come first, target last, with
        qubit order matching the index list passed to ``apply``.
        """
        if self.kind == "H":
            return np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV
        if self.kind == "X":
            return np.array([[0, 1], [1, 0]], dtype=complex)
        if self.kind == "Z":
            return np.array([[1, 0], [0, -1]], dtype=complex)
        if self.kind == "RX":
            c, s = math.cos(self.theta / 2), math.sin(self.theta / 2)
            return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
        if self.kind == "RY":
            c, s = math.cos(self.theta / 2), math.sin(self.theta / 2)
            return np.array([[c, -s], [s, c]], dtype=complex)
        if self.kind == "CX":
            m = np.eye(4, dtype=complex)
            m[2:, 2:] = [[0, 1], [1, 0]]
            return m
        if self.kind == "CZ":
            m = np.eye(4, dtype=complex)
            m[3, 3] = -1
            return m
        if self.kind == "MCX":
            k = len(self.polarities)
            dim = 2 ** (k + 1)
            m = np.eye(dim, dtype=complex)
            fire = sum(p << (k - i) for i, p in enumerate(self.polarities))
            m[fire, fire] = m[fire + 1, fire + 1] = 0
            m[fire, fire + 1] = m[fire + 1, fire] = 1
            return m
        raise ValueError(f"unknown gate kind {self.kind!r}")


# Gate constructors; the fixed gates are singletons.
H = Gate("H")
X = Gate("X")
Z = Gate("Z")
CX = Gate("CX")
CZ = Gate("CZ")


def rx(theta: float) -> Gate:
    return Gate("RX", float(theta))


def ry(theta: float) -> Gate:
    return Gate("RY", float(theta))


def mcx(polarities: tuple[int, ...] | list[int]) -> Gate:
    """Multi-controlled X; fires when every control matches its polarity."""
    pol = tuple(int(p) for p in polarities)
    if not pol:
        raise ValueError("MCX needs at least one control")
    if any(p not in (0, 1) for p in pol):
        raise ValueError(f"polarities must be 0/1, got {pol}")
    return Gate("MCX", polarities=pol)


@dataclass
class CircuitFragment:
    """Ordered gate list over a contiguous block of qubits.

    ``qubit_span`` is the number of qubits the fragment addresses;
    composition concatenates ops and takes the max span. Fragments hold
    unitary gates only -- there is no measurement instruction, which is
    what makes 'no mid-circuit measurement' statically checkable.
    """

    qubit_span: int
    ops: list[tuple[Gate, tuple[int, ...]]] = field(default_factory=list)

    def append(self, gate: Gate, *qubits: int) -> "CircuitFragment":
        if len(qubits) != gate.arity:
            raise ValueError(
                f"{gate.kind} takes {gate.arity} qubit(s), got {len(qubits)}"
            )
        if any(q < 0 or q >= self.qubit_span for q in qubits):
            raise ValueError(f"qubit index out of span {self.qubit_span}: {qubits}")
        self.ops.append((gate, tuple(qubits)))
        return self

    def compose(self, other: "CircuitFragment") -> "CircuitFragment":
        out = CircuitFragment(max(self.qubit_span, other.qubit_span))
        out.ops = list(self.ops) + list(other.ops)
        return out

    def shifted(self, offset: int) -> "CircuitFragment":
        """Same circuit moved up by ``offset`` qubits (for register packing)."""
        out = CircuitFragment(self.qubit_span + offset)
        out.ops = [(g, tuple(q + offset for q in qs)) for g, qs in self.ops]
        return out

    def remapped(self, mapping: dict[int, int], span: int) -> "CircuitFragment":
        """Rewire fragment qubits through ``mapping`` into a wider register."""
        out = CircuitFragment(span)
        for g, qs in self.ops:
            out.append(g, *(mapping.get(q, q) for q in qs))
        return out

    def inverse(self) -> "CircuitFragment":
        out = CircuitFragment(self.qubit_span)
        out.ops = [(g.inverse(), qs) for g, qs in reversed(self.ops)]
        return out


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
    """Flip ``target`` where control i holds ``polarities[i]`` (CX, MCX)."""
    view, sel0 = _axes(a, zip(controls, polarities))
    sel1 = list(sel0)
    sel0[1 + target], sel1[1 + target] = 0, 1
    sel0, sel1 = tuple(sel0), tuple(sel1)
    tmp = view[sel0].copy()
    view[sel0] = view[sel1]
    view[sel1] = tmp


def phase_flip(a: np.ndarray, qubits) -> None:
    """Negate the amplitudes where every qubit in ``qubits`` is 1 (CZ)."""
    view, sel = _axes(a, ((q, 1) for q in qubits))
    view[tuple(sel)] *= -1


def ry_entries(theta: float) -> tuple[float, float, float, float]:
    """The 2x2 entries of RY(theta), in ``apply_1q`` order."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return c, -s, s, c


def _entries(gate: Gate) -> tuple:
    """The 2x2 entries of a one-qubit gate as scalars, real where they can be."""
    if gate.kind == "RY":
        return ry_entries(gate.theta)
    if gate.kind == "RX":
        c, s = math.cos(gate.theta / 2), math.sin(gate.theta / 2)
        return c, -1j * s, -1j * s, c
    r = _SQRT2_INV
    return {"H": (r, r, r, -r), "X": (0.0, 1.0, 1.0, 0.0), "Z": (1.0, 0.0, 0.0, -1.0)}[gate.kind]


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
        if len(qubits) != gate.arity:
            raise ValueError(
                f"{gate.kind} takes {gate.arity} qubit(s), got {len(qubits)}"
            )
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubit indices: {qubits}")
        if any(q < 0 or q >= self.n_qubits for q in qubits):
            raise ValueError(f"qubit index out of range 0..{self.n_qubits - 1}: {qubits}")

        a = self.amps[None]
        if gate.arity == 1:
            apply_1q(a, qubits[0], *_entries(gate))
        elif gate.kind == "CZ":
            phase_flip(a, qubits)
        else:  # CX fires on control 1; MCX carries its polarities
            controlled_x(a, qubits[:-1], gate.polarities or (1,), qubits[-1])
        return self

    def run(self, fragment: CircuitFragment) -> "StateVector":
        if fragment.qubit_span > self.n_qubits:
            raise ValueError(
                f"fragment spans {fragment.qubit_span} qubits, register has "
                f"{self.n_qubits}"
            )
        for gate, qubits in fragment.ops:
            self.apply(gate, qubits)
        return self

    # -- readout ----------------------------------------------------------

    def marginal_prob_one(self, qubit: int) -> float:
        """Pr[measuring ``qubit`` as 1] = sum of |amp|^2 where its bit is set."""
        if qubit < 0 or qubit >= self.n_qubits:
            raise ValueError(f"qubit {qubit} out of range 0..{self.n_qubits - 1}")
        probs = np.abs(self.amps) ** 2
        probs = probs.reshape([2] * self.n_qubits)
        axes = tuple(i for i in range(self.n_qubits) if i != qubit)
        return float(probs.sum(axis=axes)[1]) if axes else float(probs[1])

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def reduced_density_matrix(self, qubit: int) -> np.ndarray:
        """2x2 reduced density matrix of one qubit."""
        view = self.amps.reshape([2] * self.n_qubits)
        m = np.moveaxis(view, qubit, 0).reshape(2, -1)
        return m @ m.conj().T

    def is_product_qubit(self, qubit: int, tol: float = 1e-9) -> bool:
        """True iff ``qubit`` is unentangled with the rest (purity >= 1 - tol)."""
        rho = self.reduced_density_matrix(qubit)
        purity = float(np.real(np.trace(rho @ rho)))
        return purity >= 1.0 - tol

    def norm_error(self) -> float:
        return abs(float(np.sum(np.abs(self.amps) ** 2)) - 1.0)

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amps.copy())


def new_state(n_qubits: int, max_qubits: int = DEFAULT_MAX_QUBITS) -> StateVector:
    """Fresh |0...0> register of ``n_qubits`` qubits."""
    if n_qubits < 1:
        raise ValueError(f"need at least 1 qubit, got {n_qubits}")
    if n_qubits > max_qubits:
        raise ResourceLimitError(
            f"{n_qubits} qubits need 2^{n_qubits} = {2**n_qubits} complex "
            f"amplitudes (~{16 * 2**n_qubits / 2**30:.1f} GiB); cap is "
            f"{max_qubits} qubits"
        )
    return StateVector(n_qubits)
