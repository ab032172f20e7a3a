"""Source wrappers and the meta-wrapper."""

from .base import Wrapper
from .filewrapper import FileSource, FileWrapper, UNKNOWN_COST
from .meta import DEFAULT_UNKNOWN_ESTIMATE, MetaWrapper
from .relational import RelationalWrapper

__all__ = [
    "DEFAULT_UNKNOWN_ESTIMATE",
    "FileSource",
    "FileWrapper",
    "MetaWrapper",
    "RelationalWrapper",
    "UNKNOWN_COST",
    "Wrapper",
]
