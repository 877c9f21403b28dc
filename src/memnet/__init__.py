"""memnet: compile separated datasets into exact ReLU memorizers."""

from .exactnum import DyadicRational, bin_range, bit_len, pack_blocks
from .netir import (AffineLayer, LayeredNet, NetMetrics, compose_serial,
                    eval_exact, eval_float, metrics, stack_parallel)
from .pipeline import Dataset, assemble_sqrt, load_and_validate, regression_wrap
from .variants import assemble_bounded_bits, assemble_bounded_depth

__version__ = "0.1.0"

__all__ = [
    "DyadicRational", "bin_range", "bit_len", "pack_blocks",
    "AffineLayer", "LayeredNet", "NetMetrics", "compose_serial",
    "eval_exact", "eval_float", "metrics", "stack_parallel",
    "Dataset", "assemble_sqrt", "load_and_validate",
    "regression_wrap", "assemble_bounded_bits", "assemble_bounded_depth",
    "__version__",
]
