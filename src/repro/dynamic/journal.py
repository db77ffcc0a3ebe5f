"""``repro-label-journal/1`` — the append-only delta journal.

The journal is the durability story for incremental relabeling, in the
same spirit as the event-log sync pattern: instead of re-dumping the
whole labeling after every update, append the delta and replay on
load.  Layout is line-delimited JSON:

* line 1 — header: ``{"format": "repro-label-journal/1",
  "epsilon": ..., "source": ...}``;
* each further line — one record: ``{"crc": <crc32 of the canonical
  delta JSON>, "delta": {...}}`` where the delta body is
  :func:`repro.dynamic.delta.delta_to_dict`'s shape, epoch-stamped
  1, 2, 3, ... in file order.

Writes are appended, flushed, and ``fsync``'d per record, so a crash
can lose or tear at most the record being written.  The loader is
exactly as lenient as that failure mode requires and no more:

* a torn **final** record (truncated bytes, invalid JSON, wrong
  envelope shape, crc mismatch, or missing trailing newline) is
  skipped with a warning — :class:`JournalWriter` then truncates it on
  reopen before appending;
* a crc-*valid* record whose delta body fails strict validation is an
  error even at the tail (the crc proves those bytes were written
  deliberately — that is writer corruption, not a crash artifact);
* anything wrong before the final record is an error: an append-only
  writer cannot tear the middle of a file.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.dynamic.delta import (
    DeltaError,
    DynamicError,
    LabelDelta,
    apply_delta_to_labels,
    delta_from_dict,
    delta_to_dict,
)
from repro.obs import eventlog, metrics, span

#: The format stamp written into every journal header.
JOURNAL_FORMAT = "repro-label-journal/1"


class JournalError(DynamicError):
    """A journal cannot be read, written, or replayed."""


def canonical_delta_bytes(delta_dict: dict) -> bytes:
    """The bytes the record crc covers: sorted-key strict JSON of the
    delta body (independent of the envelope's own key layout)."""
    return json.dumps(
        delta_dict, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


@dataclass
class JournalRead:
    """A fully-validated journal: header fields plus its deltas in
    epoch order.  ``warnings`` holds at most one message (a skipped
    torn tail record); ``valid_bytes`` is the byte length of the valid
    prefix — what a reopening writer truncates to."""

    epsilon: float
    source: Optional[str]
    deltas: List[LabelDelta] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    valid_bytes: int = 0

    @property
    def last_epoch(self) -> int:
        return self.deltas[-1].epoch if self.deltas else 0


def _parse_header(line: bytes, path: Path) -> Tuple[float, Optional[str]]:
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise JournalError(f"{path}: invalid journal header: {exc}") from None
    if not isinstance(header, dict):
        raise JournalError(f"{path}: journal header is not an object")
    if header.get("format") != JOURNAL_FORMAT:
        raise JournalError(
            f"{path}: unknown journal format {header.get('format')!r} "
            f"(this build reads {JOURNAL_FORMAT})"
        )
    epsilon = header.get("epsilon")
    if isinstance(epsilon, bool) or not isinstance(epsilon, (int, float)):
        raise JournalError(f"{path}: journal header has no valid epsilon")
    epsilon = float(epsilon)
    if not epsilon > 0:
        raise JournalError(f"{path}: journal epsilon must be positive")
    source = header.get("source")
    if source is not None and not isinstance(source, str):
        raise JournalError(f"{path}: journal source must be a string")
    return epsilon, source


def _parse_record(line: bytes) -> LabelDelta:
    """One record line -> delta, or raise.

    The two failure layers matter to the caller: envelope problems
    (undecodable, bad JSON, wrong shape, crc mismatch) raise
    :class:`JournalError` and are forgivable at the tail; a crc-valid
    envelope whose delta body is invalid raises :class:`DeltaError`,
    which is never forgiven.
    """
    try:
        record = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise JournalError(f"invalid record: {exc}") from None
    if (
        not isinstance(record, dict)
        or set(record) != {"crc", "delta"}
        or isinstance(record.get("crc"), bool)
        or not isinstance(record.get("crc"), int)
        or not isinstance(record.get("delta"), dict)
    ):
        raise JournalError(f"malformed record envelope {line[:80]!r}")
    expected = zlib.crc32(canonical_delta_bytes(record["delta"])) & 0xFFFFFFFF
    if record["crc"] != expected:
        raise JournalError(
            f"record crc mismatch (stored {record['crc']}, computed {expected})"
        )
    return delta_from_dict(record["delta"])


def read_journal(path: Union[str, Path]) -> JournalRead:
    """Load and validate a journal file.

    Strict everywhere except the single torn-tail case described in
    the module docstring, which lands in ``read.warnings`` instead of
    raising.  Epochs must be exactly 1..N in file order.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from None
    if not raw:
        raise JournalError(f"{path}: empty journal (no header)")
    lines = raw.split(b"\n")
    # A well-formed file ends with a newline, so the final split piece
    # is empty; a non-empty final piece is an unterminated (torn) line.
    terminated = lines[-1] == b""
    if terminated:
        lines = lines[:-1]
    if not lines:
        raise JournalError(f"{path}: empty journal (no header)")
    if not terminated and len(lines) == 1:
        raise JournalError(f"{path}: journal header line is unterminated")
    epsilon, source = _parse_header(lines[0], path)
    read = JournalRead(epsilon=epsilon, source=source)
    offset = len(lines[0]) + 1
    read.valid_bytes = offset
    for idx, line in enumerate(lines[1:]):
        is_tail = idx == len(lines) - 2
        torn = is_tail and not terminated
        try:
            if torn:
                raise JournalError("unterminated record (torn write)")
            delta = _parse_record(line)
        except DeltaError as exc:
            raise JournalError(
                f"{path}: record {idx + 1}: invalid delta: {exc}"
            ) from None
        except JournalError as exc:
            if is_tail:
                read.warnings.append(
                    f"{path}: skipped torn trailing record {idx + 1}: {exc}"
                )
                eventlog.warn(
                    "dynamic.journal.torn_tail", path=str(path), record=idx + 1
                )
                return read
            raise JournalError(f"{path}: record {idx + 1}: {exc}") from None
        expected_epoch = read.last_epoch + 1
        if delta.epoch != expected_epoch:
            raise JournalError(
                f"{path}: record {idx + 1}: epoch {delta.epoch} out of "
                f"sequence (expected {expected_epoch})"
            )
        if delta.epsilon != epsilon:
            raise JournalError(
                f"{path}: record {idx + 1}: delta epsilon {delta.epsilon} "
                f"differs from journal epsilon {epsilon}"
            )
        read.deltas.append(delta)
        offset += len(line) + 1
        read.valid_bytes = offset
    return read


class JournalWriter:
    """Append epoch-stamped deltas to a journal with fsync durability.

    Creating a writer on a fresh path writes (and fsyncs) the header;
    on an existing journal it validates the whole file first, adopts
    the last epoch, and — if the file ends in a torn record from a
    crashed writer — truncates the tear before appending.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        epsilon: float,
        source: Optional[str] = None,
    ) -> None:
        self.path = Path(path)
        self.epsilon = float(epsilon)
        self.source = source
        self.last_epoch = 0
        self._handle = None
        if self.path.exists() and self.path.stat().st_size > 0:
            read = read_journal(self.path)
            if read.epsilon != self.epsilon:
                raise JournalError(
                    f"{self.path}: journal epsilon {read.epsilon} differs "
                    f"from labeling epsilon {self.epsilon}"
                )
            self.last_epoch = read.last_epoch
            self._handle = open(self.path, "r+b")
            if read.warnings:
                self._handle.truncate(read.valid_bytes)
            self._handle.seek(0, os.SEEK_END)
        else:
            self._handle = open(self.path, "wb")
            header = {"format": JOURNAL_FORMAT, "epsilon": self.epsilon}
            if source is not None:
                header["source"] = source
            self._write_line(json.dumps(header, separators=(",", ":")))

    def _write_line(self, text: str) -> None:
        assert self._handle is not None
        self._handle.write(text.encode("utf-8") + b"\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append(self, delta: LabelDelta) -> int:
        """Stamp (or verify) the next epoch, write one record, fsync.

        An unstamped delta (``epoch == 0``) receives ``last_epoch + 1``
        in place; a pre-stamped delta must already carry exactly that
        epoch.  Returns the epoch written.
        """
        if self._handle is None:
            raise JournalError(f"{self.path}: journal writer is closed")
        if delta.epsilon != self.epsilon:
            raise JournalError(
                f"delta epsilon {delta.epsilon} differs from journal "
                f"epsilon {self.epsilon}"
            )
        expected = self.last_epoch + 1
        if delta.epoch == 0:
            delta.epoch = expected
        elif delta.epoch != expected:
            raise JournalError(
                f"delta epoch {delta.epoch} out of sequence "
                f"(journal expects {expected})"
            )
        body = delta_to_dict(delta)
        crc = zlib.crc32(canonical_delta_bytes(body)) & 0xFFFFFFFF
        self._write_line(
            json.dumps({"crc": crc, "delta": body}, separators=(",", ":"))
        )
        self.last_epoch = delta.epoch
        metrics.inc("dynamic.journal.appends")
        return delta.epoch

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def replay_journal(read: JournalRead, labeling) -> int:
    """Replay a loaded journal onto a labeling, in place.

    Brings a freshly-loaded (graph, tree, labels) triple up to the
    journal's last epoch: each delta's reweight is applied to the
    graph (after checking the edge exists and its current weight
    matches the recorded ``old_w`` — replaying against the wrong base
    graph is detected, not absorbed), its label changes are applied,
    and finally every path prefix is recomputed from the final weights
    so subsequent :func:`repro.dynamic.rebuild.incremental_relabel`
    calls see a consistent tree.  Returns the number of deltas
    replayed.
    """
    if read.epsilon != labeling.epsilon:
        raise JournalError(
            f"journal epsilon {read.epsilon} differs from labeling "
            f"epsilon {labeling.epsilon}"
        )
    graph, tree = labeling.graph, labeling.tree
    with span("dynamic.journal.replay", deltas=len(read.deltas)):
        for delta in read.deltas:
            u, v = delta.update.u, delta.update.v
            if not graph.has_edge(u, v):
                raise JournalError(
                    f"epoch {delta.epoch}: journal reweights missing edge "
                    f"{u!r} -- {v!r} (wrong base graph?)"
                )
            current = float(graph.weight(u, v))
            if current != delta.old_weight:
                raise JournalError(
                    f"epoch {delta.epoch}: edge {u!r} -- {v!r} has weight "
                    f"{current}, journal expected {delta.old_weight} "
                    f"(wrong base graph or journal order?)"
                )
            graph.add_edge(u, v, delta.update.weight)
            try:
                apply_delta_to_labels(labeling.labels, delta)
            except DeltaError as exc:
                raise JournalError(f"epoch {delta.epoch}: {exc}") from None
            metrics.inc("dynamic.journal.replayed")
        if read.deltas:
            for key in tree.all_path_keys():
                tree.recompute_prefix(key)
    return len(read.deltas)
