"""Hybrid test generation over a mini integer IR.

Coverage-guided fuzzing, symbolic execution with a directed (sonar) search
strategy, the two hybrid campaign modes that combine them, and a generator
of range-dispatch tree programs with exactly known coverage ground truth.
"""

from .ir import (
    IRError,
    ParseError,
    Program,
    ValidationError,
    parse_program,
    serialize_program,
)
from .generator import GenParams, generate_program, ground_truth_coverage
from .callgraph import ProgramIndex, build_callgraph, index_program
from .executor import (
    CoverageMap,
    InputVector,
    Outcome,
    RunResult,
    run_concrete,
)
from .fuzzer import FuzzConfig, FuzzResult, fuzz_campaign, mutate
from .solver import Solver, SolverStats
from .symex import Strategy, SymexLimits, SymResult, symex_campaign
from .orchestrator import (
    CampaignReport,
    HybridConfig,
    run_baselines,
    run_fs,
    run_fuzz,
    run_hybrid,
    run_sf,
    run_symex,
)

__all__ = [
    "CampaignReport",
    "CoverageMap",
    "FuzzConfig",
    "FuzzResult",
    "GenParams",
    "HybridConfig",
    "IRError",
    "InputVector",
    "Outcome",
    "ParseError",
    "Program",
    "ProgramIndex",
    "RunResult",
    "Solver",
    "SolverStats",
    "Strategy",
    "SymResult",
    "SymexLimits",
    "ValidationError",
    "build_callgraph",
    "fuzz_campaign",
    "generate_program",
    "ground_truth_coverage",
    "index_program",
    "mutate",
    "parse_program",
    "run_baselines",
    "run_concrete",
    "run_fs",
    "run_fuzz",
    "run_hybrid",
    "run_sf",
    "run_symex",
    "serialize_program",
    "symex_campaign",
]
