"""Probabilistic programmable quantum processors: simulation and verification.

A processor is a fixed unitary on data (x) program space; the program state
selects which operation lands on the data, post-selected on a program
measurement. This package provides the block-form engine, the concrete
qubit/qutrit/qudit constructions with their program encoders, conditional
correction loops, exact closed forms and a reproduction/experiment CLI.
"""

from . import loops, processor, qlinalg, streams, zoo
from .processor import (
    Branch,
    BranchDecomposition,
    DimensionMismatch,
    InvalidProcessor,
    ProcessorDefinition,
    ProgramBasis,
    ProgramState,
    assemble,
    branch_operators,
    decompose,
)
from .loops import CorrectionRule, LoopTrace, OutcomeTree, exact_success, run_loop
from .streams import derive_stream

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "BranchDecomposition",
    "CorrectionRule",
    "DimensionMismatch",
    "InvalidProcessor",
    "LoopTrace",
    "OutcomeTree",
    "ProcessorDefinition",
    "ProgramBasis",
    "ProgramState",
    "assemble",
    "branch_operators",
    "decompose",
    "derive_stream",
    "exact_success",
    "loops",
    "processor",
    "qlinalg",
    "run_loop",
    "streams",
    "zoo",
]
