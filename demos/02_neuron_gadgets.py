#!/usr/bin/env python3
"""The four neuron designs: circuit gadgets vs their closed forms.

Every neuron has a batched closed form that the classical trainer runs
(``v_stage_forward``, ``u_forward_batch``, ``p_forward_batch``,
``n_forward_batch``); this script calls each on a batch of one and shows
it agreeing with an exact simulation of the neuron's circuit fragment.
"""

import numpy as np

from qnnkit.encoding import probability_encoding_fragment
from qnnkit.neurons import (
    build_n_neuron,
    build_p_neuron,
    build_u_neuron,
    build_v_block,
    n_forward_batch,
    p_forward_batch,
    u_forward_batch,
    v_stage_forward,
)
from qnnkit.statevec import CircuitFragment, StateVector

rng = np.random.default_rng(7)

# --- V: variational block (amplitude in, amplitude out) -------------------
n = 2
theta = rng.uniform(-np.pi, np.pi, size=2 * n)
x = rng.normal(size=2**n)
x /= np.linalg.norm(x)
sim = StateVector(n, x.astype(complex)).run(build_v_block(n, theta))
out, _ = v_stage_forward(x[None], theta[None])
print("V block  analytic:", np.round(out[0], 6))
print("V block  simulated:", np.round(np.real(sim.amps), 6))

# --- U: weighted-sum neuron (amplitude in, one probability out) -----------
# The amplitudes sit on qubits 0-1 and the ancilla, qubit 2, starts in |0>.
x = np.array([0.5, 0.5, 0.5, 0.5])
for w in ([1, 1, 1, 1], [1, -1, 1, -1]):
    closed, _ = u_forward_batch(x[None], np.array([w]))
    state = StateVector(3, np.kron(x, [1.0, 0.0]))  # the ancilla, last, in |0>
    circuit = state.run(build_u_neuron(2, w)).marginals([2])[0]
    print(f"U neuron w={w}: closed form {closed[0, 0]:.6f}, circuit {circuit:.6f}")

# --- P: coherence-product neuron (probabilities in, one out) --------------
# The inputs are probability-encoded on qubits 0-1, the ancilla is qubit 2.
p = np.array([0.2, 0.7])
for w in ([1, 1], [1, -1]):
    closed = p_forward_batch(p[None], np.array([w]))[0]
    circuit = StateVector(3).run(probability_encoding_fragment(p)).run(build_p_neuron(2, w))
    print(
        f"P neuron w={w}: closed form {closed[0, 0]:.6f}, "
        f"circuit {circuit.marginals([2])[0]:.6f}"
    )

# --- N: normalization neuron (one RX reshaping Pr[1]) ---------------------
theta = 1.1
state = StateVector(1).run(probability_encoding_fragment([0.3]))
state.run(build_n_neuron(theta))
print(
    f"N neuron theta={theta}: closed form {n_forward_batch(0.3, theta):.6f}, "
    f"circuit {state.marginal_prob_one(0):.6f}"
)

# Sibling P neurons can share one input register: each gadget closes with
# the H layer it opened with, and each ancilla still lands exactly on its
# own closed-form value.
p = rng.uniform(0, 1, size=3)
w1 = np.array([1.0, -1.0, 1.0])
w2 = np.array([-1.0, 1.0, 1.0])
shared = StateVector(5).run(probability_encoding_fragment(p))
shared.run(build_p_neuron(3, w1))  # ancilla at qubit 3
shared.run(CircuitFragment(5).extend(build_p_neuron(3, w2), {3: 4}))  # ancilla at qubit 4
first, second = shared.marginals([3, 4])
print("sibling P marginals:", round(first, 10), round(second, 10))
first, second = p_forward_batch(p[None], np.stack([w1, w2]))[0][0]
print("their closed forms: ", round(first, 10), round(second, 10))
