#!/usr/bin/env python3
"""Tour of the dense state-vector simulator.

Register allocation, gate application and marginals. The simulator has
no entanglement probe: the design-rule engine decides entanglement
statically, from the layer sequence alone.
"""

import numpy as np

from qnnkit import StateVector
from qnnkit.statevec import CX, H, X, mcx, rx, ry

# A fresh register starts in |0...0>.
state = StateVector(2)
print("ground state:", state.amps)

# Hadamard then CX turn the pair into a Bell state.
state.apply(H, [0]).apply(CX, [0, 1])
print("bell state:", np.round(state.amps, 6))
print("marginal Pr[1] of qubits 0 and 1:", state.marginals([0, 1]))

# Rotations use the half-angle convention; RX(pi) acts like X up to phase.
single = StateVector(1).apply(ry(2 * np.arcsin(np.sqrt(0.3))), [0])
print("probability-encoded 0.3 -> Pr[1] =", round(single.marginal_prob_one(0), 12))
single.apply(rx(np.pi), [0])
print("after RX(pi)          -> Pr[1] =", round(single.marginal_prob_one(0), 12))

# Multi-controlled X with negative polarities fires on |0...0>, which is
# how the neuron gadgets collect their weighted sums onto an ancilla.
trigger = StateVector(3).apply(X, [0])
trigger.apply(mcx((0, 0)), [0, 1, 2])
print("anti-controls on |10.>: ancilla stays", trigger.marginal_prob_one(2))
trigger2 = StateVector(3).apply(mcx((0, 0)), [0, 1, 2])
print("anti-controls on |00.>: ancilla flips to", trigger2.marginal_prob_one(2))
