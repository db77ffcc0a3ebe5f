"""Label deltas on the wire: the ``DELTA`` codec and its application.

A :class:`LabelDelta` is everything one incremental relabel changed
(:func:`repro.dynamic.rebuild.incremental_relabel` computes it).
:func:`delta_to_dict` / :func:`delta_from_dict` give it a strict JSON
wire form, shared by the journal and the serve ``DELTA`` op, and
:func:`apply_delta_to_labels` replays one onto any ``FlatLabel`` dict, a
build's or a load's, so replica stores apply the same delta the builder
computed and land in the same state.

This module needs only the label core (:mod:`repro.core.flat`) and the
vertex and key codecs, so a server applies deltas without loading the
relabeler, the decomposition or scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Tuple

from repro.core.flat import FlatLabel, PathKey, group_entry_changes
from repro.core.flat import encode_path_key as path_key_code
from repro.core.labeling import PortalEntry
from repro.core.serialize import (
    SerializationError,
    decode_path_key,
    decode_vertex,
    encode_path_key,
    encode_vertex,
)
from repro.util.errors import GraphError, ReproError

Vertex = Hashable

#: One changed label entry: (vertex, path key, new portal list).
Change = Tuple[Vertex, PathKey, List[PortalEntry]]
#: One removed label entry: (vertex, path key).
Removal = Tuple[Vertex, PathKey]


@dataclass(frozen=True)
class EdgeUpdate:
    """A single edge reweight: set ``w(u, v) = weight``.

    The decomposition tree is held fixed across updates, so only
    reweights of *existing* edges are representable; structural changes
    (add/remove an edge) require an offline rebuild and are rejected at
    the API boundary (:func:`repro.dynamic.rebuild.incremental_relabel`).
    """

    u: Vertex
    v: Vertex
    weight: float

    def endpoints(self) -> Tuple[Vertex, Vertex]:
        return (self.u, self.v)


class DynamicError(ReproError):
    """An update cannot be applied incrementally."""


class DeltaError(DynamicError):
    """A label delta is malformed or inconsistent with its target."""


@dataclass
class LabelDelta:
    """Everything that changed in one incremental relabel.

    ``epoch`` is 0 ("unstamped") until a journal or a caller assigns
    the delta its position in an update sequence; stores and servers
    gate application on it (see ``docs/dynamic.md``).
    """

    update: EdgeUpdate
    old_weight: float
    epsilon: float
    changes: List[Change] = field(default_factory=list)
    removals: List[Removal] = field(default_factory=list)
    units: int = 0
    epoch: int = 0

    @property
    def num_changes(self) -> int:
        return len(self.changes) + len(self.removals)

    @property
    def is_noop(self) -> bool:
        return not self.changes and not self.removals


def apply_delta_to_labels(
    labels: Dict[Vertex, FlatLabel],
    delta: LabelDelta,
    require_vertices: bool = True,
) -> Tuple[int, int]:
    """Replay a delta onto a label dict; returns ``(changes, removals)``
    actually applied.

    Each touched label is replaced by its
    :meth:`~repro.core.flat.FlatLabel.with_changes` splice, so a reader
    holding the old label never sees a half-applied delta.  With
    ``require_vertices`` (the default), a
    change naming a vertex the dict does not hold raises
    :class:`DeltaError` — the right behavior for a whole-graph store or
    a journal replay.  Sharded cluster stores pass ``False`` so a delta
    can be fanned out whole and each node applies only its owned slice.

    Removals of already-absent keys are no-ops (counted as skipped):
    application is idempotent at the entry level, and the epoch gate
    above this layer is what prevents double-apply.
    """
    applied_changes = applied_removals = 0
    for vx, (changes, removals) in group_entry_changes(
        delta.changes, delta.removals
    ).items():
        label = labels.get(vx)
        if label is None:
            if require_vertices:
                raise DeltaError(f"delta names unknown vertex {vx!r}")
            continue
        labels[vx], removed = label.with_changes(changes, removals)
        applied_removals += removed
        applied_changes += len(changes)
    return applied_changes, applied_removals


def delta_to_dict(delta: LabelDelta) -> dict:
    """The strict JSON wire form of a delta (journal records and the
    serve ``DELTA`` op both carry exactly this shape)."""
    return {
        "u": encode_vertex(delta.update.u),
        "v": encode_vertex(delta.update.v),
        "w": float(delta.update.weight),
        "old_w": float(delta.old_weight),
        "epsilon": float(delta.epsilon),
        "epoch": int(delta.epoch),
        "units": int(delta.units),
        "changes": [
            [
                encode_vertex(vx),
                encode_path_key(key),
                [[float(pos), float(dist)] for pos, dist in portals],
            ]
            for vx, key, portals in delta.changes
        ],
        "removals": [
            [encode_vertex(vx), encode_path_key(key)]
            for vx, key in delta.removals
        ],
    }


def _require_finite_positive(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DeltaError(f"delta field {name!r} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        raise DeltaError(
            f"delta field {name!r} must be finite and positive, got {value!r}"
        )
    return value


def _check_key_code(key: PathKey) -> None:
    try:
        path_key_code(key)
    except GraphError:
        raise DeltaError(
            f"path key {key!r} does not fit the key code "
            f"(i32 node, u16 phase and path)"
        ) from None


def delta_from_dict(data) -> LabelDelta:
    """Strict inverse of :func:`delta_to_dict`.

    Every malformation raises :class:`DeltaError` with a one-line
    reason; nothing is coerced silently.  That includes a changed key
    outside the ``/2`` key code's bounds and portal positions that
    decrease, which the combine's sorted merge would turn into an
    underestimate.  The journal loader and the serve ``DELTA`` op both
    funnel untrusted bytes through here.
    """
    if not isinstance(data, dict):
        raise DeltaError(f"delta payload must be an object, got {type(data).__name__}")
    required = {"u", "v", "w", "old_w", "epsilon", "epoch", "units",
                "changes", "removals"}
    missing = required - set(data)
    if missing:
        raise DeltaError(f"delta payload missing fields {sorted(missing)}")
    try:
        u = decode_vertex(data["u"])
        v = decode_vertex(data["v"])
    except SerializationError as exc:
        raise DeltaError(str(exc)) from None
    if u == v:
        raise DeltaError("delta endpoints must differ")
    weight = _require_finite_positive(data["w"], "w")
    old_weight = _require_finite_positive(data["old_w"], "old_w")
    epsilon = _require_finite_positive(data["epsilon"], "epsilon")
    epoch = data["epoch"]
    if isinstance(epoch, bool) or not isinstance(epoch, int) or epoch < 0:
        raise DeltaError(f"delta epoch must be a non-negative int, got {epoch!r}")
    units = data["units"]
    if isinstance(units, bool) or not isinstance(units, int) or units < 0:
        raise DeltaError(f"delta units must be a non-negative int, got {units!r}")
    changes: List[Change] = []
    if not isinstance(data["changes"], list):
        raise DeltaError("delta changes must be a list")
    for item in data["changes"]:
        if not isinstance(item, list) or len(item) != 3:
            raise DeltaError(f"malformed delta change {item!r}")
        enc_v, key_text, pairs = item
        try:
            vx = decode_vertex(enc_v)
            key = decode_path_key(key_text) if isinstance(key_text, str) else None
        except SerializationError as exc:
            raise DeltaError(str(exc)) from None
        if key is None:
            raise DeltaError(f"malformed path key {key_text!r}")
        _check_key_code(key)
        if not isinstance(pairs, list) or not pairs:
            raise DeltaError(f"delta change for {vx!r} has no portal entries")
        portals: List[PortalEntry] = []
        for pair in pairs:
            if not isinstance(pair, list) or len(pair) != 2:
                raise DeltaError(f"malformed portal entry {pair!r}")
            pos, dist = pair
            for val in (pos, dist):
                if isinstance(val, bool) or not isinstance(val, (int, float)):
                    raise DeltaError(f"malformed portal entry {pair!r}")
                if not math.isfinite(float(val)):
                    raise DeltaError(f"non-finite portal entry {pair!r}")
            portals.append((float(pos), float(dist)))
            if len(portals) > 1 and portals[-1][0] < portals[-2][0]:
                raise DeltaError(
                    f"delta change for {vx!r} under key {key_text!r} has "
                    f"portal positions out of order ({portals[-2][0]!r} then "
                    f"{portals[-1][0]!r})"
                )
        changes.append((vx, key, portals))
    removals: List[Removal] = []
    if not isinstance(data["removals"], list):
        raise DeltaError("delta removals must be a list")
    for item in data["removals"]:
        if not isinstance(item, list) or len(item) != 2:
            raise DeltaError(f"malformed delta removal {item!r}")
        enc_v, key_text = item
        try:
            vx = decode_vertex(enc_v)
            key = decode_path_key(key_text) if isinstance(key_text, str) else None
        except SerializationError as exc:
            raise DeltaError(str(exc)) from None
        if key is None:
            raise DeltaError(f"malformed path key {key_text!r}")
        removals.append((vx, key))
    return LabelDelta(
        update=EdgeUpdate(u, v, weight),
        old_weight=old_weight,
        epsilon=epsilon,
        changes=changes,
        removals=removals,
        units=units,
        epoch=epoch,
    )
