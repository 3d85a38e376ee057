"""Exception types shared by all trihex modules, and the default square cap."""

__all__ = ["DEFAULT_MAX_SQUARES", "DomainError", "ResourceError"]


class DomainError(ValueError):
    """Raised when an argument lies outside an operation's domain."""


class ResourceError(RuntimeError):
    """Raised when a computation would exceed a configured resource cap."""


DEFAULT_MAX_SQUARES = 10**7  # square cap of the constructions, ResourceError above it
