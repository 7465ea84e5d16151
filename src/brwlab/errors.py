"""Exception types shared across the package.

Each class corresponds to one failure mode of the public operations.  The
command line tool maps them onto exit codes by class: every
``ValidationError`` exits 1, and every ``ResourceError`` exits 2.  The
refusals are ``TooLargeError`` (enumeration too large),
``PopulationCapError`` (node cap hit), ``ExcessiveDiscardError`` (too
many Monte Carlo replicates capped), ``NoConvergenceError`` (fixed-point
iteration did not settle), ``MassOverflowError`` and ``ZeroMassError``
(tilted mass out of the float range), and plain ``ResourceError`` (a
count past ``2^62``, positions past the float64 range).
"""

from __future__ import annotations


class BrwError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(BrwError):
    """A law model or run configuration violates its contract."""


class NormalizationError(ValidationError):
    """Atom probabilities are out of range or do not sum to one."""


class EmptyLawError(ValidationError):
    """The law has no atoms, or every atom is childless."""


class SubcriticalFamilyError(ValidationError):
    """A heavy-tail family whose mean offspring does not exceed one."""


class DomainError(ValidationError):
    """An argument lies outside the domain of the requested operation."""


class ResourceError(BrwError):
    """Computation refused or aborted to protect time/memory budgets."""


class TooLargeError(ResourceError):
    """Exact enumeration refused; the projected outcome count is attached."""

    def __init__(self, estimate: int, cap: int):
        super().__init__(
            f"enumeration would produce about {estimate} outcomes, cap is {cap}"
        )
        self.estimate = estimate
        self.cap = cap


class PopulationCapError(ResourceError):
    """Tree growth hit ``caps.max_nodes``.

    Carries the partially grown tree instead of returning it silently: a
    truncated population gives biased weighted sums, so callers must
    either discard the replicate or flag the artifact.
    """

    def __init__(self, partial, generation: int, cap: int):
        super().__init__(
            f"population cap {cap} hit while growing generation {generation}"
        )
        self.partial = partial
        self.generation = generation
        self.cap = cap


class ExcessiveDiscardError(ResourceError):
    """More than the tolerated share of Monte Carlo replicates was discarded."""

    def __init__(self, discarded: int, replicates: int):
        super().__init__(
            f"{discarded} of {replicates} replicates hit the population cap; "
            "estimates would be biased (raise caps.max_nodes or lower the depth)"
        )
        self.discarded = discarded
        self.replicates = replicates


class NoConvergenceError(ResourceError):
    """Fixed-point iteration did not meet its tolerance within the cap."""

    def __init__(self, last_iterate: float, iterations: int):
        super().__init__(
            f"fixed-point iteration still moving after {iterations} steps "
            f"(last iterate {last_iterate!r})"
        )
        self.last_iterate = last_iterate
        self.iterations = iterations


class MassOverflowError(ResourceError):
    """A tilted sum exceeded the floating-point range."""


class ZeroMassError(ResourceError):
    """The tilted mass vanished, so size-biasing is undefined."""
