"""Exception types raised across the package.

Everything derives from :class:`LinkmorseError` (a ``ValueError``) so callers
can catch the whole family with one clause while tests distinguish the
specific failure modes.
"""


class LinkmorseError(ValueError):
    """Base class for all linkmorse errors."""


class InvalidLinkageError(LinkmorseError):
    """Edge-length vector violates positivity or closability."""


class InvalidConfigurationError(LinkmorseError):
    """Vertex list is malformed or does not describe a usable configuration."""


class DegenerateCircleError(LinkmorseError):
    """The first three vertices are collinear; no circumcircle exists."""


class InconsistentDescriptorError(LinkmorseError):
    """Cyclic descriptor violates the angular closure condition."""


class NonGenericPathError(LinkmorseError):
    """Two deformation events coincide within the path resolution."""
