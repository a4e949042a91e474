"""The selection backend behind :class:`~repro.hidden_db.table.HiddenTable`.

See ``ARCHITECTURE.md`` at the repository root for the layering
(interface → backend → engine) and how to plug in another backend.
"""

from repro.hidden_db.backends.base import (
    BackendLike,
    SelectionBackend,
    make_backend,
)
from repro.hidden_db.backends.naive import NaiveScanBackend

__all__ = [
    "SelectionBackend",
    "BackendLike",
    "NaiveScanBackend",
    "make_backend",
]
