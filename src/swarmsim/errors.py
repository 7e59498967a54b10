"""Exception types shared across the package."""


class SwarmSimError(Exception):
    """Base class for all domain errors raised by this package."""


class MissingChunkError(SwarmSimError):
    """A chunk address could not be resolved during traversal."""

    def __init__(self, address: bytes):
        self.address = address
        super().__init__(f"missing chunk {address.hex()}")


class MalformedChunkError(SwarmSimError):
    """A chunk payload is structurally invalid for its position in the tree."""


class DecodingError(SwarmSimError):
    """An erasure-coding group could not be decoded."""


class UnrecoverableGroupError(DecodingError):
    """Too few surviving chunks in a coding group to reconstruct it."""

    def __init__(self, level: int, index: int, need: int, have: int):
        self.level = level
        self.index = index
        self.need = need
        self.have = have
        super().__init__(
            f"coding group {index} at level {level} unrecoverable: "
            f"need {need}, have {have}"
        )


class InfeasiblePlanError(SwarmSimError):
    """No deletion plan can satisfy the replication rules."""


class UnderReplicatedError(InfeasiblePlanError):
    """A chunk has fewer replicas than the requested target."""


class SyncModeError(SwarmSimError):
    """An operation was refused because of the network's sync mode."""


class SnapshotMismatchError(SwarmSimError):
    """A snapshot does not fit the network it is being restored into."""


class ConnectivityError(SwarmSimError):
    """A peer's routing view has fewer members than required."""
