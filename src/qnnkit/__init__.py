"""qnnkit: simulate, validate and train mixed quantum neural networks.

The package has three layers:

- exact simulation (``statevec``, ``encoding``, ``neurons``): a dense
  state-vector simulator plus circuit gadgets for four neuron designs,
  each paired with a closed-form forward model the simulator verifies;
- design rules (``rules``, ``arch``): a static feasibility engine that
  classifies every producer/consumer junction of an architecture into
  one of eight encoding/entanglement paths;
- learning (``model``, ``data``, ``cli``): a factorized classical
  trainer for hybrid real/binary parameters, MNIST tooling, and an
  experiment command line.

The modules log under ``logging.getLogger("qnnkit")``, which, as a
library's logger, holds only a ``NullHandler``: a program that wants the
warnings configures logging itself, and Python's last-resort handler
never prints them, so the command line's stderr keeps its one
``error:`` line.
"""

import logging as _logging  # kept out of __all__

__version__ = "0.1.0"

_logging.getLogger(__name__).addHandler(_logging.NullHandler())

from .arch import (
    ArchitectureError,
    ArchitectureParseError,
    ArchitectureSpec,
    LayerSpec,
    from_kinds,
    load_architecture,
    parse_architecture,
)
from .encoding import (
    EncodingKind,
    amplitude_encoding_fragment,
    probability_encoding_fragment,
)
from .model import (
    ForwardTrace,
    ParameterStore,
    ResourceLimitError,
    TrainConfig,
    TrainingDiverged,
    accuracy,
    build_network_circuit,
    circuit_inference,
    circuit_inference_batch,
    forward,
    init_parameters,
    load_checkpoint,
    pipeline,
    save_checkpoint,
    train,
)
from .neurons import (
    build_n_neuron,
    build_p_neuron,
    build_u_neuron,
    build_v_block,
)
from .rules import (
    ConnectionVerdict,
    ConsumerOp,
    Feasibility,
    JunctionProfile,
    check_connection,
    classify_path,
    validate_architecture,
)
from .statevec import (
    CircuitFragment,
    Gate,
    StateVector,
    with_zeros,
)

__all__ = [name for name in dir() if not name.startswith("_")]
