"""Exception types shared across the package."""


class TeamRankError(Exception):
    """Base class for every error raised by this library."""


class DimensionMismatch(TeamRankError):
    """Two vectors or matrices that must share a dimensionality do not."""


class EmptyTeam(TeamRankError):
    """A team context needs at least one member."""


class EmptyEliteSet(TeamRankError):
    """Target selection needs at least one candidate target."""


class InvalidLambda(TeamRankError):
    """Exchange parameters must be strictly positive."""


class InvalidWeights(TeamRankError):
    """Weight vectors must be finite and strictly positive."""


class InvalidArgument(TeamRankError):
    """A call-level argument is out of its documented range."""


class InvalidParams(TeamRankError):
    """Distribution parameters are outside their valid domain."""


class InsufficientData(TeamRankError):
    """Not enough samples or series entries for the operation."""


class DegenerateBinning(TeamRankError):
    """Goodness-of-fit binning collapsed to fewer than two bins."""


class NotAMember(TeamRankError):
    """The referenced object is not a member of the team context."""


class InvalidPartition(TeamRankError):
    """A partition index is outside the index's member range."""


class StaleIndex(TeamRankError):
    """The index fingerprint does not match the query configuration."""


class ShortIndex(StaleIndex):
    """An index run holds fewer entries than a query asks for."""


class OldIndex(StaleIndex):
    """An index file was written in an earlier format version."""


class MissingColumn(TeamRankError):
    """A column named by the manifest is absent from the file header."""


class EmptyFile(TeamRankError):
    """The input file contains no data rows."""


class MalformedRow(TeamRankError):
    """A data row failed to parse; carries the 1-based data row number."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason
