"""Classical-to-quantum data encodings and their preparation circuits.

Two encodings are supported:

- *Amplitude*: 2^n real values, signed ones included, become the
  amplitudes of an n-qubit state. ``normalize_rows`` is the analytic
  form, and the trainer and the circuit both divide by its norms;
  ``amplitude_encoding_fragment`` builds the exact multiplexed-RY
  preparation network of the same state.
- *Probability*: each value d in [0, 1] becomes one qubit rotated to
  sqrt(1-d)|0> + sqrt(d)|1>, so Pr[1] = d exactly, by the one RY per
  qubit of ``probability_encoding_fragment``.

Both return only the fragment; run it on a fresh ``StateVector``. The
exact oracle instead takes ``amplitude_encoding_batch``: for each row of
a (B, 2^n) batch, the amplitudes of the amplitude fragment's run, bit
for bit, computed from the same ladder angles with no gate list,
because every CX of a ladder only swaps the pairs of some prefixes, a
sign per prefix. Each ladder step is then one rotation of every row's
prefix pairs, in place; a single row is a batch of one.
"""

from __future__ import annotations

import functools
import math
from enum import Enum

import numpy as np

from .statevec import CX, CircuitFragment, ry


class EncodingKind(Enum):
    AMPLITUDE = "amplitude"
    PROBABILITY = "probability"


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Each row of ``x`` (B, N) divided by its L2 norm.

    ValueError on a row whose norm is zero or not finite, which a NaN or
    an infinite value gives.
    """
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if not np.all((norms > 0) & np.isfinite(norms)):
        raise ValueError("cannot amplitude-encode an all-zero or non-finite input row")
    return x / norms


@functools.cache
def _walsh(k: int) -> np.ndarray:
    """Read-only 2^k Walsh-Hadamard matrix W[p, j] = (-1)^popcount(p & j), by Sylvester."""
    walsh = np.ones((1, 1))
    for _ in range(k):
        walsh = np.kron(walsh, [[1.0, 1.0], [1.0, -1.0]])
    walsh.setflags(write=False)
    return walsh


@functools.cache
def _gray(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (Gray order, W[gray]) of 2^l steps: gray[i] = i ^ (i >> 1),
    and the Walsh matrix with its rows in that order."""
    gray = np.arange(2**level)
    gray ^= gray >> 1
    walsh = _walsh(level)[gray]
    for table in (gray, walsh):
        table.setflags(write=False)
    return gray, walsh


def _ladder(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Gray order, rotation angles) of the multiplexed-RY ladder for the 2^k
    ``angles`` in the last axis.

    Step i of the ladder is RY(beta[i]) on the target, then a CX from the
    control where gray[i] and gray[i + 1] differ. beta = (1/2^k) A^T alpha
    with A[p, i] = (-1)^popcount(p & gray(i)): the CXs before step i have
    swapped the target pair of prefix p exactly when popcount(p & gray[i])
    is odd, which flips the sign of that rotation on p. A is the
    Walsh-Hadamard matrix with its columns in Gray order. Each row's
    product is its own matrix-vector product, as for one row alone: one
    matrix-matrix product for all rows would round some of them otherwise.
    """
    size = angles.shape[-1]
    gray, gray_walsh = _gray(size.bit_length() - 1)
    return gray, np.matmul(gray_walsh, angles[..., None])[..., 0] / size


@functools.cache
def _cross_signs(level: int) -> np.ndarray:
    """Read-only (2^l, 1, 2, 2^l) signs of the cross terms of level l's
    ladder steps: step i gives prefix p's pair the terms -w hi and +w lo,
    with w = W[gray[i], p]; axis 1 is for the rows of a batch."""
    walsh = _gray(level)[1]
    signs = np.stack([-walsh, walsh], axis=1)[:, None]
    signs.setflags(write=False)
    return signs


def multiplexed_ry(angles, controls: list[int], target: int, span: int) -> CircuitFragment:
    """RY(angles[p]) on ``target`` for each control pattern p (controls[0] = MSB).

    Gray-code ladder of 2^k RY + 2^k CX gates for k controls; with no
    controls it degenerates to a single RY.
    """
    angles = np.asarray(angles, dtype=float)
    k = len(controls)
    if len(angles) != 2**k:
        raise ValueError(f"need {2**k} angles for {k} controls, got {len(angles)}")
    frag = CircuitFragment(span)
    if k == 0:
        return frag.append(ry(angles[0]), target)
    gray, beta = _ladder(angles)
    for i, theta in enumerate(beta):
        frag.append(ry(theta), target)
        diff = int(gray[i] ^ gray[(i + 1) % len(gray)])
        bit = diff.bit_length() - 1  # bit 0 = LSB of the pattern
        frag.append(CX, controls[k - 1 - bit], target)
    return frag


def _rows(data, ndim: int) -> np.ndarray:
    """``data`` as a (B, 2^n) batch of floats; ValueError unless it has
    ``ndim`` axes (one value row or a batch of rows), the last of 2^n >= 2."""
    data = np.asarray(data, dtype=float)
    size = data.shape[-1] if data.ndim == ndim else 0
    if size < 2 or size & (size - 1):
        what = "2^n >= 2 values in one axis" if ndim == 1 else "a batch of rows of 2^n >= 2 values"
        raise ValueError(f"amplitude encoding takes {what}, got {data.shape}")
    return data.reshape(-1, size)


def _level_angles(rows: np.ndarray) -> list[np.ndarray]:
    """Angles of the Mottonen preparation of each row of a (B, 2^n) batch:
    entry l is (B, 2^l), the multiplexor angles on qubit l, one per prefix.

    Angle p splits the norm of block p between its two halves; on the
    last qubit each block is one pair of amplitudes, so its angle splits
    the signed pair and sets the signs too.
    """
    v = normalize_rows(rows)
    n = v.shape[1].bit_length() - 1
    halves = []
    for level in range(n):
        # axis 2: the two halves of the block under each prefix, as signed
        # values on the last level and as norms before it
        block = v.reshape(len(v), 2**level, 2, 2 ** (n - level - 1))
        # np.linalg.norm's own sum, without its conj copy of real values
        halves.append(block[..., 0] if level == n - 1 else np.sqrt(np.add.reduce(block * block, axis=3)))
    halves = np.concatenate(halves, axis=1)  # every level's prefixes, (B, 2^n - 1, 2)
    angles = 2.0 * np.arctan2(halves[..., 1], halves[..., 0])
    return [angles[:, 2**level - 1 : 2 ** (level + 1) - 1] for level in range(n)]


def amplitude_encoding_fragment(data) -> CircuitFragment:
    """Exact state-preparation circuit for 2^n >= 2 real values on n qubits.

    Recursive construction (Mottonen et al., quant-ph/0407010): qubit l
    gets a multiplexed RY over qubits 0..l-1 with the ``_level_angles``.
    Applied to |0...0> the fragment gives ``normalize_rows(data[None])[0]``.
    """
    levels = [angles[0] for angles in _level_angles(_rows(data, 1))]
    frag = CircuitFragment(len(levels))
    for level, angles in enumerate(levels):
        frag.extend(multiplexed_ry(angles, list(range(level)), level, len(levels)))
    return frag


def amplitude_encoding_batch(rows) -> np.ndarray:
    """(B, 2^n): for each row of a (B, 2^n) batch, the 2^n real amplitudes
    that ``amplitude_encoding_fragment(row)`` prepares on |0...0>, bit for
    bit, computed without a gate list.

    Qubits after l are still |0> when qubit l's ladder runs, so each
    row's state is a pair (lo, hi) per prefix p, held as a (B, 2, 2^l)
    array, and every CX of the ladder only swaps some prefixes' pairs.
    Before step i the pair of p is swapped exactly when W[gray[i], p] = -1
    (``_ladder``), so RY(beta[i]) on the swapped pairs is RY(-beta[i]) on
    the unswapped ones, and the whole step, for every row and prefix, is
    one rotation: pairs = c pairs + T pairs[:, ::-1], where T's rows are
    -s w and s w, with c = cos(beta[i]/2), s = sin(beta[i]/2) and
    w = W[gray[i]] (``_cross_signs``). These are the products that
    ``apply_1q`` forms on the swapped pairs, joined by the same sums up
    to order, and after the ladder's last CX no pair is swapped. A step
    forms its cross term in one buffer and updates ``pairs`` in place,
    the same two products and one sum.
    """
    levels = _level_angles(_rows(rows, 2))
    count = len(levels[0])
    # every step's half angle, level after level, as (steps, B, 1, 1)
    half = np.concatenate([_ladder(angles)[1] for angles in levels], axis=1).T / 2
    cos, sin = np.cos(half)[..., None, None], np.sin(half)[..., None, None]
    amps = np.ones((count, 1))
    for level in range(len(levels)):
        steps = slice(2**level - 1, 2 ** (level + 1) - 1)
        pairs = np.zeros((count, 2, 2**level))
        pairs[:, 0] = amps
        cross = np.empty_like(pairs)
        for c, t in zip(cos[steps], sin[steps] * _cross_signs(level)):
            np.multiply(t, pairs[:, ::-1], out=cross)
            pairs *= c
            pairs += cross
        amps = pairs.swapaxes(1, 2).reshape(count, 2 << level)  # qubit l is the last bit
    return amps


def probability_encoding_fragment(data) -> CircuitFragment:
    """One RY(2 arcsin sqrt(d)) per qubit; run on |0...0>, qubit i ends with Pr[1] = data[i]."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 1 or len(data) < 1:
        raise ValueError("probability encoding takes a non-empty 1-D vector")
    outside = ~((data >= 0) & (data <= 1))  # NaN compares false both ways
    if np.any(outside):
        raise ValueError(f"probability encoding needs values in [0, 1], got {data[outside][0]}")
    frag = CircuitFragment(len(data))
    for i, d in enumerate(data):
        frag.append(ry(2.0 * math.asin(math.sqrt(d))), i)
    return frag
