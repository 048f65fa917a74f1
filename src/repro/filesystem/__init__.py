"""File and filesystem abstractions.

Files in the simulator are metadata only (a name and a size); their
location is tracked by a :class:`~repro.filesystem.registry.FileRegistry`
mapping files to the storage services that hold a copy.  The NFS model is
a storage service, :class:`~repro.simulator.storage_service.NFSStorageService`.
"""

from repro.filesystem.file import File
from repro.filesystem.registry import FileRegistry

__all__ = ["File", "FileRegistry"]
