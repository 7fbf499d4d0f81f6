"""coil: a structured-array kernel compiler.

Kernels in concrete index notation are lowered over sparse, banded,
block-sparse, and run-length tensor formats into specialized imperative code,
executed by a built-in interpreter or as generated Python, and verified
against a dense oracle.
"""

from .api import (
    Compiled,
    InputSpec,
    OutputSpec,
    RunResult,
    compile_kernel,
    execute,
    oracle_outputs,
    run_kernel,
)
from .cin import CinError
from .interp import ExecCounters, InterpError
from .oracle import DenseData, evaluate as oracle_evaluate, max_rel_error
from .parser import parse
from .rewrite import simplify
from .storage import FormatError, Tensor, from_dense, to_dense
from .unfurl import CompileError
from .values import MISSING

__all__ = [
    "Compiled",
    "CompileError",
    "CinError",
    "DenseData",
    "ExecCounters",
    "FormatError",
    "InterpError",
    "InputSpec",
    "MISSING",
    "OutputSpec",
    "RunResult",
    "Tensor",
    "compile_kernel",
    "execute",
    "from_dense",
    "max_rel_error",
    "oracle_evaluate",
    "oracle_outputs",
    "parse",
    "run_kernel",
    "simplify",
    "to_dense",
]

__version__ = "0.1.0"
