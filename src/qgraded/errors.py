"""Exception types shared across the package."""


class QgradedError(Exception):
    """Base class for all library errors."""


class ScalarParseError(QgradedError, ValueError):
    """Syntax or semantic error in a scalar literal."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class GroupMismatchError(QgradedError, ValueError):
    """Operands belong to different grading groups or algebras."""


class CapExceededError(QgradedError, RuntimeError):
    """A configured resource cap was exceeded."""


class DescriptorError(QgradedError, ValueError):
    """Malformed input descriptor."""


class InternalConsistencyError(QgradedError, RuntimeError):
    """A structurally impossible state was reached; indicates a bug."""
