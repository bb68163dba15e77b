"""On-disk chunk store for out-of-core tables.

Stage 2 at paper scale cannot hold the YELT in memory; the scan path then
runs over disk-resident chunks.  :class:`ChunkStore` persists a table as
one packed file per chunk inside a directory, and replays it as a chunk
iterator compatible with :class:`repro.data.stream.TableScan`'s
contract (one bounded chunk in memory at a time).  Chunks are cut by
row count, or kept as given (:meth:`ChunkStore.write_chunks`: a
:class:`repro.core.tables.StoredYet`'s, whole trials each).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Iterator

from repro.data.chunk import plan_chunks
from repro.data.columnar import ColumnTable
from repro.data.serialization import pack_table, unpack_table
from repro.errors import StorageError

__all__ = ["ChunkStore"]


class ChunkStore:
    """A directory of packed table chunks.

    Parameters
    ----------
    root:
        Directory that holds one subdirectory per stored table.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _table_dir(self, name: str) -> Path:
        if not name or "/" in name or name.startswith("."):
            raise StorageError(f"invalid table name {name!r}")
        return self.root / name

    def write_table(self, name: str, table: ColumnTable, rows_per_chunk: int) -> int:
        """Persist ``table`` as chunk files; returns the chunk count."""
        specs = plan_chunks(table.n_rows, rows_per_chunk)
        return self.write_chunks(
            name, [table.slice(s.start, s.stop) for s in specs] or [table])

    def write_chunks(self, name: str, chunks: Iterable[ColumnTable]) -> int:
        """Persist ``chunks``, in order, as table ``name``; returns their count."""
        tdir = self._table_dir(name)
        if tdir.exists():
            raise StorageError(f"table {name!r} already stored")
        tdir.mkdir()
        count = 0
        for count, chunk in enumerate(chunks, 1):
            (tdir / f"chunk-{count - 1:06d}.rpt").write_bytes(pack_table(chunk))
        return count

    def list_tables(self) -> list[str]:
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())

    def chunk_paths(self, name: str) -> list[Path]:
        tdir = self._table_dir(name)
        if not tdir.exists():
            raise StorageError(f"no stored table {name!r}")
        return sorted(tdir.glob("chunk-*.rpt"))

    def iter_chunks(self, name: str) -> Iterator[ColumnTable]:
        """Stream the stored chunks in order (one in memory at a time)."""
        for path in self.chunk_paths(name):
            yield unpack_table(path.read_bytes())

    def read_table(self, name: str) -> ColumnTable:
        """Materialise the whole table (tests / small tables only)."""
        chunks = list(self.iter_chunks(name))
        return ColumnTable.concat(chunks)

    def delete_table(self, name: str) -> None:
        tdir = self._table_dir(name)
        if not tdir.exists():
            raise StorageError(f"no stored table {name!r}")
        for path in tdir.iterdir():
            path.unlink()
        tdir.rmdir()

    def stored_bytes(self, name: str) -> int:
        return sum(p.stat().st_size for p in self.chunk_paths(name))
