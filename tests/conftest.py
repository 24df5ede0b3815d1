"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def qubit_purity():
    """Tr(rho^2) of one qubit's reduced density matrix rho, from a state's
    amplitudes: 1 for a qubit unentangled with the rest, 1/2 when maximally
    mixed. The package decides entanglement statically; only tests probe it."""

    def purity(amps: np.ndarray, qubit: int) -> float:
        n = np.size(amps).bit_length() - 1
        m = np.moveaxis(np.reshape(amps, (2,) * n), qubit, 0).reshape(2, -1)
        rho = m @ m.conj().T
        return float(np.real(np.trace(rho @ rho)))

    return purity
