"""ProofSeek: whole-proof generation with automated repair, policy
formalization, and benchmark tooling over pluggable prover/model backends."""

from .engine import BudgetConfig, prove
from .errors import ProofSeekError
from .formalize import compile_policy, render_theory
from .model import MockModel
from .policy import parse_policy
from .prover import MockProver

__version__ = "0.1.0"
