"""Sharded label stores for the query service.

One store holds one loaded labeling file, split into hash shards by
vertex.  Sharding buys nothing for a single process dict lookup — it
exists so the serving layer's *accounting* matches the deployment the
paper argues for (labels are small remote objects, spread across
machines): per-shard label counts and word sizes are first-class,
exported as ``serve.shard.*`` gauges, and the shard function is stable
across processes and runs (CRC-32 of the vertex's canonical wire
encoding, not Python's salted ``hash``), so a future multi-process
split serves exactly the shards this module reports.

Labels are held in one form only, :class:`~repro.core.flat.FlatLabel`:
DIST and BATCH are answered by :func:`~repro.core.flat.flat_estimate`,
and the LABEL op encodes the same object.  A
:class:`ShardedLabelStore` is fed by either codec, picked by sniffing
the file:

* JSON (``/1``) — every label decoded at load time into the overlay;
  there is no reader behind it.
* binary (``/2``) — the file is ``mmap``'d (O(1) open) and labels are
  decoded lazily per lookup through a small LRU (see
  :mod:`repro.core.binfmt`); labels rewritten by deltas live in the
  overlay and win over the file.

A :class:`StoreCatalog` maps store names to stores; the server loads
one store per ``--labels`` file and routes requests by the optional
``"store"`` field.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Hashable, Iterator, List, NamedTuple, Optional, Tuple
from typing import Union

from repro.core.binfmt import BinaryLabelReader, is_binary_labels
from repro.core.flat import FlatLabel, flat_estimate, group_entry_changes
from repro.core.serialize import RemoteLabels, load_labeling, shard_key_bytes
from repro.dynamic.delta import (
    Change,
    DeltaError,
    LabelDelta,
    Removal,
)
from repro.util.errors import GraphError, ReproError

Vertex = Hashable

__all__ = [
    "DEFAULT_NUM_SHARDS",
    "ClusterStoreView",
    "ShardNotOwned",
    "ShardStats",
    "ShardedLabelStore",
    "StoreCatalog",
    "shard_key",
]

DEFAULT_NUM_SHARDS = 8

#: Decoded-label LRU capacity of a ``/2`` store (labels, not bytes);
#: 0 decodes on every lookup.
DEFAULT_LABEL_CACHE = 4096


def shard_key(v: Vertex) -> bytes:
    """Stable bytes identifying *v* across processes and runs.

    Numeric vertices are canonicalized first (``1.0`` -> ``1``):
    ``1 == 1.0`` is one dict key, so it must be one shard key too —
    otherwise a label stored under ``1.0`` and queried as ``1`` can
    route to the wrong shard and miss.
    """
    return shard_key_bytes(v)


class ShardStats(NamedTuple):
    """One hash shard's accounting row."""

    index: int
    num_labels: int
    words: int


def _check_next_delta(delta: LabelDelta, epsilon: float, epoch: int,
                      owner: str) -> None:
    """Strict epoch gate: *delta* must carry exactly ``epoch + 1`` and
    the target's epsilon.  Idempotence for replays and gap detection
    are the server's policy layer, which answers ``ok/noop`` and
    ``stale_delta`` respectively."""
    if float(delta.epsilon) != float(epsilon):
        raise DeltaError(
            f"delta epsilon {delta.epsilon} differs from store "
            f"epsilon {epsilon}"
        )
    if delta.epoch != epoch + 1:
        raise DeltaError(
            f"delta epoch {delta.epoch} out of sequence "
            f"({owner} expects {epoch + 1})"
        )


class ShardedLabelStore:
    """One labeling, hash-sharded by vertex, with O(1) label lookup.

    ``_overlay`` maps vertex -> :class:`FlatLabel` and always wins.  A
    ``/1`` store keeps every label there and has no ``reader``; a
    ``/2`` store keeps only delta-rewritten labels there and decodes
    the rest from its mmap'd ``reader`` through an LRU of
    ``label_cache`` labels, churned ones (no merge state, see
    :class:`FlatLabel`) when the file holds more labels than that.
    Lookup, delta application and accounting are the same code for both.

    Per-shard label and word counts are plain integers: computed at
    load (read from the ``/2`` shard directory, which decodes nothing)
    and kept exact by every applied delta.
    """

    def __init__(
        self,
        name: str,
        epsilon: float,
        num_shards: int = DEFAULT_NUM_SHARDS,
        source: Optional[str] = None,
        reader: Optional[BinaryLabelReader] = None,
        label_cache: int = DEFAULT_LABEL_CACHE,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.name = name
        self.epsilon = epsilon
        self.source = source
        self.reader = reader
        self._overlay: Dict[Vertex, FlatLabel] = {}
        self._cache: "OrderedDict[Vertex, FlatLabel]" = OrderedDict()
        self._cache_capacity = label_cache
        self._memo = reader is None or reader.num_labels <= label_cache
        self._shard_labels = [0] * num_shards
        self._shard_words = [0] * num_shards
        self.label_epoch = 0
        self.applied_deltas = 0

    # -- construction ---------------------------------------------------
    @classmethod
    def from_remote(
        cls,
        name: str,
        remote: RemoteLabels,
        num_shards: int = DEFAULT_NUM_SHARDS,
        source: Optional[str] = None,
    ) -> "ShardedLabelStore":
        """A ``/1``-style store: every loaded label held in the overlay."""
        store = cls(name, remote.epsilon, num_shards, source=source)
        for label in remote.labels.values():
            store._overlay[label.vertex] = label
            shard = store.shard_index(label.vertex)
            store._shard_labels[shard] += 1
            store._shard_words[shard] += label.words
        return store

    @classmethod
    def mapped(
        cls,
        path: Union[str, Path],
        name: Optional[str] = None,
        label_cache: int = DEFAULT_LABEL_CACHE,
    ) -> "ShardedLabelStore":
        """A store served straight off a ``/2`` file's ``mmap``.

        Opening is O(1) in the label count: map the file, read the
        header and shard directory.  The shard layout is the one baked
        in at pack time (``repro pack --shards``), so every process
        mapping this file agrees on routing.
        """
        path = Path(path)
        reader = BinaryLabelReader(path)
        shards = range(reader.num_shards)
        store = cls(name or path.stem, float(reader.epsilon), len(shards),
                    source=str(path), reader=reader, label_cache=label_cache)
        store._shard_labels = [reader.shard_labels(i) for i in shards]
        store._shard_words = [reader.shard_words(i) for i in shards]
        return store

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        num_shards: int = DEFAULT_NUM_SHARDS,
        name: Optional[str] = None,
    ) -> "ShardedLabelStore":
        """Load a ``repro-distance-labels`` file into a store.

        The codec is sniffed: a binary (``/2``) file is mapped (O(1)
        open, lazy decode, its own pack-time shard count); a JSON
        (``/1``) file is parsed eagerly into *num_shards* shards.

        Format validation happens here, at load time: a file with an
        unknown format version is refused before the server ever binds
        a port (:func:`repro.core.serialize.load_labeling` raises
        ``SerializationError``).
        """
        path = Path(path)
        with open(path, "rb") as handle:
            head = handle.read(8)
        if is_binary_labels(head):
            return cls.mapped(path, name=name)
        return cls.from_remote(
            name or path.stem, load_labeling(path), num_shards,
            source=str(path),
        )

    # -- lookup ---------------------------------------------------------
    def shard_index(self, v: Vertex) -> int:
        return zlib.crc32(shard_key(v)) % len(self._shard_labels)

    def flat_label(self, v: Vertex) -> FlatLabel:
        """*v*'s label: overlay first, then the LRU, then the file."""
        found = self._overlay.get(v)
        if found is not None:
            return found
        if self.reader is not None:
            cache = self._cache
            found = cache.get(v)
            if found is not None:
                cache.move_to_end(v)
                return found
            found = self.reader.get_flat(v, self._memo)
            if found is not None:
                if self._cache_capacity > 0:
                    cache[v] = found
                    if len(cache) > self._cache_capacity:
                        cache.popitem(last=False)
                return found
        raise GraphError(f"vertex {v!r} has no label in store {self.name!r}")

    def __contains__(self, v: Vertex) -> bool:
        return v in self._overlay or (
            self.reader is not None and v in self.reader
        )

    def estimate(self, u: Vertex, v: Vertex) -> float:
        """Theorem-2 combine step on two stored labels; bit-identical to
        :meth:`RemoteLabels.estimate` on the same inputs."""
        return flat_estimate(self.flat_label(u), self.flat_label(v))

    def vertices(self) -> Iterator[Vertex]:
        """Vertices in source order (``/2``: portals stay undecoded)."""
        if self.reader is None:
            return iter(self._overlay)
        return self.reader.iter_vertices()

    # -- dynamic updates ------------------------------------------------
    def apply_label_changes(
        self,
        changes: List[Change],
        removals: List[Removal],
        require_vertices: bool = True,
    ) -> Tuple[int, int]:
        """Apply raw entry changes/removals, keeping per-shard word
        accounting exact.  No epoch logic here — that is
        :meth:`apply_delta`'s job.

        Changes are grouped per vertex, so each touched label is
        replaced once by a copy (:meth:`FlatLabel.with_changes
        <repro.core.flat.FlatLabel.with_changes>`, never mutating the
        old label, which a reader may still hold) and installed in the
        overlay.  With
        ``require_vertices``, a delta naming an unlabeled vertex is
        refused before anything is applied.
        """
        grouped = group_entry_changes(changes, removals)
        current: Dict[Vertex, FlatLabel] = {}
        for vx in grouped:
            try:
                current[vx] = self.flat_label(vx)
            except GraphError:
                if require_vertices:
                    raise DeltaError(
                        f"delta names vertex {vx!r} with no label in "
                        f"store {self.name!r}"
                    ) from None
        applied_changes = applied_removals = 0
        for vx, old in current.items():
            vx_changes, vx_removals = grouped[vx]
            new, removed = old.with_changes(vx_changes, vx_removals)
            applied_removals += removed
            applied_changes += len(vx_changes)
            self._overlay[vx] = new
            self._cache.pop(vx, None)
            self._shard_words[self.shard_index(vx)] += new.words - old.words
        return applied_changes, applied_removals

    def apply_delta(self, delta: LabelDelta) -> dict:
        """Install the next epoch's label delta (strictly
        ``label_epoch + 1``, same epsilon)."""
        _check_next_delta(
            delta, self.epsilon, self.label_epoch, f"store {self.name!r}"
        )
        changes, removals = self.apply_label_changes(
            delta.changes, delta.removals
        )
        self.label_epoch = delta.epoch
        self.applied_deltas += 1
        return {
            "epoch": self.label_epoch,
            "changes": changes,
            "removals": removals,
        }

    # -- accounting -----------------------------------------------------
    @property
    def codec(self) -> str:
        return "json" if self.reader is None else "binary"

    @property
    def mapped_bytes(self) -> int:
        """Bytes of file mapped into the process (0: fully parsed)."""
        return 0 if self.reader is None else self.reader.mapped_bytes

    @property
    def cached_labels(self) -> int:
        return len(self._cache)

    @property
    def num_shards(self) -> int:
        return len(self._shard_labels)

    @property
    def num_labels(self) -> int:
        return sum(self._shard_labels)

    @property
    def total_words(self) -> int:
        return sum(self._shard_words)

    @property
    def shards(self) -> List[ShardStats]:
        rows = zip(self._shard_labels, self._shard_words)
        return [ShardStats(i, *row) for i, row in enumerate(rows)]

    def stats(self) -> dict:
        """JSON-ready per-store breakdown (the STATS op's payload)."""
        stats = {
            "epsilon": self.epsilon,
            "labels": self.num_labels,
            "words": self.total_words,
            "codec": self.codec,
            "mapped_bytes": self.mapped_bytes,
            "source": self.source,
            "label_epoch": self.label_epoch,
            "applied_deltas": self.applied_deltas,
            "shards": [
                {"labels": shard.num_labels, "words": shard.words}
                for shard in self.shards
            ],
        }
        if self.reader is not None:
            stats["cached_labels"] = self.cached_labels
            stats["overlay_labels"] = len(self._overlay)
        return stats

    def close(self) -> None:
        self._cache.clear()
        self._overlay.clear()
        if self.reader is not None:
            self.reader.close()


class StoreCatalog:
    """Named stores; the first one registered is the default."""

    def __init__(self) -> None:
        self._stores: Dict[str, ShardedLabelStore] = {}
        self._default: Optional[str] = None

    def add(self, store: ShardedLabelStore) -> ShardedLabelStore:
        name = store.name
        if name in self._stores:
            # Two --labels files with the same stem: disambiguate by
            # position so both stay addressable.
            suffix = 2
            while f"{name}.{suffix}" in self._stores:
                suffix += 1
            name = f"{name}.{suffix}"
            store.name = name
        self._stores[name] = store
        if self._default is None:
            self._default = name
        return store

    def get(self, name: Optional[str]) -> ShardedLabelStore:
        """The named store, or the default when *name* is None.

        Raises :class:`KeyError` with the unknown name (the server maps
        this to an ``unknown_store`` error reply).
        """
        if name is None:
            if self._default is None:
                raise KeyError("no stores loaded")
            return self._stores[self._default]
        return self._stores[name]

    def __len__(self) -> int:
        return len(self._stores)

    def __contains__(self, name: str) -> bool:
        return name in self._stores

    def __iter__(self) -> Iterator[ShardedLabelStore]:
        return iter(self._stores.values())

    @property
    def names(self) -> List[str]:
        return list(self._stores)

    @property
    def num_labels(self) -> int:
        return sum(store.num_labels for store in self)

    def stats(self) -> dict:
        return {name: store.stats() for name, store in self._stores.items()}


class ShardNotOwned(ReproError):
    """A vertex routed to this node whose shard the node does not hold.

    In a cluster this means the client's map disagrees with the node's
    actual data placement — the server answers ``stale_map`` so the
    client refreshes and re-routes, instead of the misleading
    ``unknown_vertex`` (the vertex may well have a label, elsewhere).
    """

    def __init__(self, v: Vertex, shard: int, node_id: str) -> None:
        super().__init__(
            f"shard {shard} (vertex {v!r}) is not held by node {node_id!r}"
        )
        self.vertex = v
        self.shard = shard
        self.node_id = node_id


class ClusterStoreView:
    """The cluster-routing facade over a node's per-shard stores.

    On a cluster node each loaded pack file is one *global* shard,
    registered in the catalog under its ``shard-%04d`` stem.  This view
    answers the plain store interface by first routing a vertex to its
    global shard via the cluster map's hash, then delegating to that
    shard's store — so the default-store path of a cluster server
    transparently spans every shard the node holds, and a vertex the
    node does *not* hold raises :class:`ShardNotOwned` rather than
    guessing.

    ``cluster_state`` is duck-typed (anything with ``node_id``, a
    ``map`` exposing ``shard_of``/``epsilon``, an ``owned`` shard set,
    and ``store_name``) so this module never imports
    :mod:`repro.cluster` — the cluster client imports the serve client,
    and a module-level import back the other way would cycle.
    """

    def __init__(self, catalog: StoreCatalog, cluster_state) -> None:
        self.catalog = catalog
        self.cluster = cluster_state
        self.name = f"cluster:{cluster_state.node_id}"
        epsilons = {store.epsilon for store in catalog}
        self.epsilon = (
            epsilons.pop() if len(epsilons) == 1
            else float(cluster_state.map.epsilon)
        )
        self.label_epoch = 0
        self.applied_deltas = 0

    def shard_index(self, v: Vertex) -> int:
        """The *global* shard of *v* (cluster routing, not the pack
        file's internal hash buckets)."""
        return self.cluster.map.shard_of(v)

    def _store_of(self, v: Vertex) -> ShardedLabelStore:
        shard = self.cluster.map.shard_of(v)
        name = self.cluster.store_name(shard)
        if shard not in self.cluster.owned or name not in self.catalog:
            raise ShardNotOwned(v, shard, self.cluster.node_id)
        return self.catalog.get(name)

    def flat_label(self, v: Vertex) -> FlatLabel:
        return self._store_of(v).flat_label(v)

    def __contains__(self, v: Vertex) -> bool:
        try:
            return v in self._store_of(v)
        except ShardNotOwned:
            return False

    def estimate(self, u: Vertex, v: Vertex) -> float:
        """The same Theorem-2 combine as a single store — both labels
        are fetched through shard routing first."""
        return flat_estimate(self.flat_label(u), self.flat_label(v))

    def vertices(self) -> Iterator[Vertex]:
        for shard in sorted(self.cluster.owned):
            name = self.cluster.store_name(shard)
            if name in self.catalog:
                yield from self.catalog.get(name).vertices()

    # -- dynamic updates ------------------------------------------------
    def apply_delta(self, delta: LabelDelta) -> dict:
        """Apply the node-owned slice of a whole-graph delta.

        The pusher fans the *same* delta out to every node; each node
        keeps only the entries whose vertex routes (via the cluster
        map's shard hash) to a shard it owns, and delegates them to the
        owning shard's store.  The view tracks its own ``label_epoch``
        — one update sequence per node, regardless of how many shard
        packs it holds.
        """
        _check_next_delta(
            delta, self.epsilon, self.label_epoch,
            f"node {self.cluster.node_id!r}",
        )
        by_store: Dict[str, Tuple[List[Change], List[Removal]]] = {}
        skipped = 0
        for kind, items in ((0, delta.changes), (1, delta.removals)):
            for item in items:
                shard = self.cluster.map.shard_of(item[0])
                name = self.cluster.store_name(shard)
                if shard in self.cluster.owned and name in self.catalog:
                    by_store.setdefault(name, ([], []))[kind].append(item)
                else:
                    skipped += 1
        changes = removals = 0
        for name, (store_changes, store_removals) in by_store.items():
            c, r = self.catalog.get(name).apply_label_changes(
                store_changes, store_removals
            )
            changes += c
            removals += r
        self.label_epoch = delta.epoch
        self.applied_deltas += 1
        return {
            "epoch": self.label_epoch,
            "changes": changes,
            "removals": removals,
            "skipped": skipped,
        }

    # -- accounting -----------------------------------------------------
    @property
    def codec(self) -> str:
        return "cluster"

    @property
    def mapped_bytes(self) -> int:
        return sum(store.mapped_bytes for store in self.catalog)

    @property
    def num_shards(self) -> int:
        return self.cluster.map.num_shards

    @property
    def num_labels(self) -> int:
        return self.catalog.num_labels

    @property
    def total_words(self) -> int:
        return sum(store.total_words for store in self.catalog)

    def stats(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "labels": self.num_labels,
            "words": self.total_words,
            "codec": self.codec,
            "node": self.cluster.node_id,
            "epoch": self.cluster.map.epoch,
            "label_epoch": self.label_epoch,
            "applied_deltas": self.applied_deltas,
            "owned_shards": sorted(self.cluster.owned),
            "cluster_shards": self.num_shards,
        }
