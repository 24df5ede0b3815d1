#!/usr/bin/env python3
"""The four neuron designs: circuit gadgets vs their closed forms.

Every neuron has an analytical forward model used for classical
training; this script shows each one agreeing with an exact simulation
of the corresponding circuit fragment.
"""

import numpy as np

from qnnkit.encoding import probability_encode
from qnnkit.neurons import (
    build_n_neuron,
    n_forward,
    p_forward,
    simulate_p_neuron,
    simulate_u_neuron,
    u_forward,
    v_forward,
)
from qnnkit.statevec import StateVector
from qnnkit.neurons import build_v_block

rng = np.random.default_rng(7)

# --- V: variational block (amplitude in, amplitude out) -------------------
n = 2
theta = rng.uniform(-np.pi, np.pi, size=2 * n)
x = rng.normal(size=2**n)
x /= np.linalg.norm(x)
sim = StateVector(n, x.astype(complex)).run(build_v_block(n, theta))
print("V block  analytic:", np.round(v_forward(x, theta), 6))
print("V block  simulated:", np.round(np.real(sim.amps), 6))

# --- U: weighted-sum neuron (amplitude in, one probability out) -----------
x = np.array([0.5, 0.5, 0.5, 0.5])
for w in ([1, 1, 1, 1], [1, -1, 1, -1]):
    print(
        f"U neuron w={w}: closed form {u_forward(x, w):.6f}, "
        f"circuit {simulate_u_neuron(x, w):.6f}"
    )

# --- P: coherence-product neuron (probabilities in, one out) --------------
p = np.array([0.2, 0.7])
for w in ([1, 1], [1, -1]):
    print(
        f"P neuron w={w}: closed form {p_forward(p, w):.6f}, "
        f"circuit {simulate_p_neuron(p, w):.6f}"
    )

# --- N: normalization neuron (one RX reshaping Pr[1]) ---------------------
theta = 1.1
_, state = probability_encode([0.3])
state.run(build_n_neuron(theta))
print(
    f"N neuron theta={theta}: closed form {n_forward(0.3, theta):.6f}, "
    f"circuit {state.marginal_prob_one(0):.6f}"
)

# Sibling P neurons can share one input register: the uncompute suffix
# returns the inputs to their standby frame and each ancilla still lands
# exactly on its own closed-form value.
from qnnkit.neurons import build_p_neuron
from qnnkit.statevec import CircuitFragment

p = rng.uniform(0, 1, size=3)
w1 = np.array([1.0, -1.0, 1.0])
w2 = np.array([-1.0, 1.0, 1.0])
frag_enc, _ = probability_encode(p)
shared = StateVector(5).run(frag_enc).run(build_p_neuron(3, w1))  # ancilla at qubit 3
shared.run(CircuitFragment(5).extend(build_p_neuron(3, w2), {3: 4}))  # ancilla at qubit 4
print("sibling P marginals:", round(shared.marginal_prob_one(3), 10),
      round(shared.marginal_prob_one(4), 10))
print("their closed forms: ", round(p_forward(p, w1), 10), round(p_forward(p, w2), 10))
