"""Exception types shared across the package.

The CLI exits 2 on MemoryBudgetError (cli._EXIT_CODES).  Any other bad
request, a layer the table does not hold or an oracle run past its cap
included, is a ValueError.  MissingPriorError is a caller error that no
command raises.  Keep the hierarchy flat and the meanings narrow.
"""


class DegseqError(Exception):
    """Base class for package-specific failures."""


class MemoryBudgetError(DegseqError):
    """A table build was refused: the running total of its arrays passed
    the cap at ``estimated_bytes``, a lower bound on what it needs."""

    def __init__(self, estimated_bytes: int, cap_bytes: int):
        self.estimated_bytes = estimated_bytes
        self.cap_bytes = cap_bytes
        super().__init__(
            f"table would need at least {estimated_bytes} bytes "
            f"but the memory cap is {cap_bytes} bytes"
        )


class MissingPriorError(DegseqError):
    """A computation needs earlier series values that were not supplied."""
