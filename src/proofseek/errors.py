"""Exception types shared across the package.

The hierarchy is the one place that decides whether a fault says anything
about a proof.  A ``TransportError`` (``SessionClosed`` included) is no
verdict: a backend that could not be reached, a reply that cannot be read,
a lost session, a validated prefix the prover refuses when it is replayed.
Whoever meets one leaves the problem undetermined, never failed.  A
``TheoryLoadError`` is the prover's verdict on the statement itself.
"""

from typing import Optional


class ProofSeekError(Exception):
    """Base class for all package errors."""


class ParseError(ProofSeekError):
    """Tokenization failed (unterminated string, comment, or cartouche).

    ``line`` and ``column`` (1-based) locate ``offset`` in ``text``; both are
    0 when no offset is given.
    """

    def __init__(self, message: str, text: str = "", offset: Optional[int] = None):
        line = column = 0
        if offset is not None:
            line = text.count("\n", 0, offset) + 1
            column = offset - text.rfind("\n", 0, offset)
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class IndexOutOfRange(ProofSeekError, IndexError):
    """A step index does not address a step in the script."""


class PolicyFormatError(ProofSeekError):
    """A policy document is missing or misuses a field."""

    def __init__(self, field: str, detail: str = ""):
        msg = field if not detail else f"{field}: {detail}"
        super().__init__(msg)
        self.field = field


class UnsupportedPolicy(ProofSeekError):
    """The policy is outside the deterministic compiler's fragment."""


class StageValidationError(ProofSeekError):
    """A formalization stage produced structurally invalid output after retry."""


class TransportError(ProofSeekError):
    """No verdict: a backend could not be reached, the connection broke
    mid-exchange, a reply could not be read, or the prover misbehaved.

    Distinct from prover-reported proof errors: transport faults must never be
    counted as proof failures.
    """


class TheoryLoadError(ProofSeekError):
    """The prover rejected the theory text at session setup."""


class SessionClosed(TransportError):
    """A step was applied to a session that is no longer open."""


class BudgetExceeded(ProofSeekError):
    """A sample request exceeded the configured max_samples."""


class MissingFixture(ProofSeekError):
    """A replay backend had no recorded response for the request."""


class EmptyInput(ProofSeekError):
    """An aggregate was requested over zero records."""
