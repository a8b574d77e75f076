"""Network containers, black-box query access, generation, and interchange."""
from .nets import (
    AffineMap,
    Neuron,
    ThreeLayerNet,
    TwoLayerNet,
    batch_eval,
    evaluator,
    relu,
)
from .query import (
    DOMAIN_FULL,
    DOMAIN_NONNEG,
    AccessAudit,
    DomainError,
    LineOracle,
    NonFiniteValueError,
    QueryOracle,
    as_oracle,
    axis_ray,
)
from .generate import (
    GenerationError,
    check_nonzero_partials,
    generate_three_layer,
    generate_two_layer,
)
from .serialize import (
    FORMAT_NAME,
    document_to_net,
    dumps_document,
    load_net,
    loads_document,
    net_to_document,
    save_net,
)

__all__ = [
    "AffineMap", "Neuron", "TwoLayerNet", "ThreeLayerNet",
    "relu", "evaluator", "batch_eval",
    "QueryOracle", "LineOracle", "AccessAudit", "DomainError",
    "NonFiniteValueError", "as_oracle",
    "axis_ray", "DOMAIN_NONNEG", "DOMAIN_FULL",
    "GenerationError",
    "generate_two_layer", "generate_three_layer", "check_nonzero_partials",
    "FORMAT_NAME", "dumps_document", "loads_document", "net_to_document",
    "document_to_net", "save_net", "load_net",
]
