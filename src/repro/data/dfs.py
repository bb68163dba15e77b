"""A simulated distributed file system (the "large distributed file space").

The paper's second HPC strategy is *"accumulation of large distributed
file space ... relying on MapReduce or Hadoop style computations"* (§II).
:class:`SimDfs` reproduces the architecture of such a system in one
process: a namenode (file → ordered block list), datanodes holding block
replicas, configurable block size and replication factor, node failure,
and re-replication.  Blocks are real byte strings, so MapReduce jobs over
the DFS do real I/O-shaped work; "distribution" is simulated in the sense
that datanodes share one address space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.chunk import plan_chunks
from repro.data.columnar import ColumnTable
from repro.data.serialization import pack_table, unpack_table
from repro.errors import ConfigurationError, StorageError

__all__ = ["BlockInfo", "SimDfs"]


@dataclass(frozen=True)
class BlockInfo:
    """Metadata for one stored block."""

    block_id: int
    length: int


@dataclass
class _DataNode:
    node_id: int
    alive: bool = True
    blocks: dict[int, bytes] = field(default_factory=dict)

    @property
    def used_bytes(self) -> int:
        return sum(len(b) for b in self.blocks.values())


class SimDfs:
    """Single-process simulation of an HDFS-style block store.

    Parameters
    ----------
    n_datanodes:
        Number of simulated datanodes.
    block_bytes:
        Target block size for byte-stream writes (64 MiB, the classic
        HDFS default).
    replication:
        Number of replicas per block (capped at the node count).
    """

    def __init__(
        self,
        n_datanodes: int = 8,
        block_bytes: int = 64 * 1024**2,
        replication: int = 3,
    ) -> None:
        if n_datanodes <= 0:
            raise ConfigurationError(f"need at least one datanode, got {n_datanodes}")
        if block_bytes <= 0:
            raise ConfigurationError(f"block_bytes must be positive, got {block_bytes}")
        if replication <= 0:
            raise ConfigurationError(f"replication must be positive, got {replication}")
        self.block_bytes = block_bytes
        self.replication = min(replication, n_datanodes)
        self._nodes = {i: _DataNode(i) for i in range(n_datanodes)}
        self._files: dict[str, list[int]] = {}
        self._block_info: dict[int, BlockInfo] = {}
        self._block_locations: dict[int, set[int]] = {}
        self._next_block_id = 0
        self._placement_cursor = 0

    # -- write paths ----------------------------------------------------------

    def write(self, path: str, data: bytes) -> None:
        """Store ``data`` under ``path``, split at the block size."""
        if path in self._files:
            raise StorageError(f"file exists: {path!r}")
        blocks = [
            data[spec.start:spec.stop]
            for spec in plan_chunks(len(data), self.block_bytes)
        ] or [b""]
        self._files[path] = [self._store_block(b) for b in blocks]

    def write_table(self, path: str, table: ColumnTable, rows_per_block: int) -> None:
        """Store a column table as ``rows_per_block``-row blocks (see
        :meth:`write_blocks`)."""
        specs = plan_chunks(table.n_rows, rows_per_block)
        self.write_blocks(path, [table.slice(s.start, s.stop) for s in specs]
                          or [table])

    def write_blocks(self, path: str, tables: list[ColumnTable]) -> None:
        """Store each table as one self-describing packed batch per block.

        Record batches are block-aligned (as with Hadoop sequence files), so
        each block can be decoded independently by a map task; the caller
        decides where a block ends (the MapReduce engine cuts at trial
        boundaries).
        """
        if path in self._files:
            raise StorageError(f"file exists: {path!r}")
        self._files[path] = [self._store_block(pack_table(t)) for t in tables]

    def _store_block(self, data: bytes) -> int:
        block_id = self._next_block_id
        self._next_block_id += 1
        self._block_info[block_id] = BlockInfo(block_id, len(data))
        targets = self._pick_nodes(self.replication, exclude=set())
        for node_id in targets:
            self._nodes[node_id].blocks[block_id] = data
        self._block_locations[block_id] = set(targets)
        return block_id

    def _pick_nodes(self, count: int, exclude: set[int]) -> list[int]:
        live = [n for n in self._nodes.values() if n.alive and n.node_id not in exclude]
        if len(live) < count:
            raise StorageError(
                f"cannot place {count} replicas on {len(live)} live datanodes"
            )
        # Round-robin placement balances load like HDFS's default policy
        # does in a homogeneous cluster.
        live.sort(key=lambda n: n.node_id)
        chosen = []
        for i in range(count):
            chosen.append(live[(self._placement_cursor + i) % len(live)].node_id)
        self._placement_cursor = (self._placement_cursor + count) % max(len(live), 1)
        return chosen

    # -- read paths -------------------------------------------------------------

    def exists(self, path: str) -> bool:
        return path in self._files

    def list_files(self) -> list[str]:
        return sorted(self._files)

    def delete(self, path: str) -> None:
        """Remove a file and free its blocks."""
        block_ids = self._files.pop(path, None)
        if block_ids is None:
            raise StorageError(f"no such file: {path!r}")
        for bid in block_ids:
            for node_id in self._block_locations.pop(bid, set()):
                self._nodes[node_id].blocks.pop(bid, None)
            self._block_info.pop(bid, None)

    def file_blocks(self, path: str) -> list[BlockInfo]:
        """Ordered block metadata for ``path``."""
        try:
            return [self._block_info[b] for b in self._files[path]]
        except KeyError:
            raise StorageError(f"no such file: {path!r}") from None

    def read_block(self, block_id: int) -> bytes:
        """Read one block from any live replica."""
        locations = self._block_locations.get(block_id)
        if not locations:
            raise StorageError(f"unknown block {block_id}")
        for node_id in sorted(locations):
            node = self._nodes[node_id]
            if node.alive and block_id in node.blocks:
                return node.blocks[block_id]
        raise StorageError(f"block {block_id} has no live replica")

    def read(self, path: str) -> bytes:
        """Reassemble a byte-stream file."""
        return b"".join(self.read_block(b) for b in self._files_get(path))

    def read_table_blocks(self, path: str) -> list[ColumnTable]:
        """Decode each block of a table file independently."""
        return [unpack_table(self.read_block(b)) for b in self._files_get(path)]

    def read_table(self, path: str) -> ColumnTable:
        """Reassemble a table file."""
        return ColumnTable.concat(self.read_table_blocks(path))

    def _files_get(self, path: str) -> list[int]:
        try:
            return self._files[path]
        except KeyError:
            raise StorageError(f"no such file: {path!r}") from None

    # -- failure & recovery --------------------------------------------------

    @property
    def n_live_nodes(self) -> int:
        return sum(1 for n in self._nodes.values() if n.alive)

    def kill_node(self, node_id: int) -> None:
        """Simulate a datanode failure (its replicas become unreachable)."""
        try:
            node = self._nodes[node_id]
        except KeyError:
            raise StorageError(f"no such datanode {node_id}") from None
        node.alive = False
        for bid in list(node.blocks):
            self._block_locations[bid].discard(node_id)
        node.blocks.clear()

    def restart_node(self, node_id: int) -> None:
        """Bring a failed node back (empty, as after a disk replacement)."""
        self._nodes[node_id].alive = True

    def re_replicate(self) -> int:
        """Restore the replication factor of under-replicated blocks.

        Returns the number of new replicas created.  Raises
        :class:`StorageError` if some block has lost every replica.
        """
        created = 0
        for bid, locations in self._block_locations.items():
            live = {n for n in locations if self._nodes[n].alive}
            if not live:
                raise StorageError(f"block {bid} lost all replicas")
            missing = self.replication - len(live)
            if missing <= 0:
                continue
            data = self._nodes[next(iter(live))].blocks[bid]
            for node_id in self._pick_nodes(missing, exclude=live):
                self._nodes[node_id].blocks[bid] = data
                locations.add(node_id)
                created += 1
        return created

    # -- introspection --------------------------------------------------------

    def total_stored_bytes(self) -> int:
        """Bytes stored across all datanodes (counts replicas)."""
        return sum(n.used_bytes for n in self._nodes.values())

    def replication_of(self, block_id: int) -> int:
        return sum(
            1 for n in self._block_locations.get(block_id, ())
            if self._nodes[n].alive
        )
