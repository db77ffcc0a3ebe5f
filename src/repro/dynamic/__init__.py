"""``repro.dynamic`` — incremental relabeling under live traffic.

A static labeling answers queries forever, but the moment an edge
weight changes the offline pipeline says "rebuild everything".  The
decomposition tree makes that unnecessary: the labels produced for a
``(node, phase)`` unit depend only on distances *inside that phase's
residual* and on the prefix sums of that phase's separator paths, so a
weight change on edge ``{u, v}`` can only move the output of units
whose residual contains **both** endpoints — and those units form a
short root-down chain of the tree (see :mod:`repro.dynamic.invalidate`).

The package turns that observation into a live-update pipeline:

* :mod:`repro.dynamic.invalidate` — compute the minimal affected-unit
  set for one edge update (with the soundness argument spelled out);
* :mod:`repro.dynamic.rebuild` — recompute exactly those units through
  the same batched-Dijkstra machinery the offline build uses, mutate
  the labeling in place, and emit a :class:`LabelDelta` whose
  application is byte-identical to a from-scratch rebuild on the same
  decomposition tree;
* :mod:`repro.dynamic.delta` — the delta's strict JSON wire form and
  its application to a label dict, which is all a server needs;
* :mod:`repro.dynamic.journal` — the ``repro-label-journal/1``
  append-only journal of epoch-stamped deltas (fsync'd writes, strict
  replay, crash-tolerant trailing-record handling);
* :mod:`repro.dynamic.driver` — the loadgen ``--updates`` driver that
  interleaves journaled weight changes with live verified queries
  against a running server (the DELTA op of
  :mod:`repro.serve.protocol`).

Scope: the decomposition tree is held **fixed** across updates, so the
supported update is a *reweight* of an existing edge (adds/removes can
change residual reachability and therefore which keys a label holds —
those still require an offline rebuild, and the CLI says so).  See
``docs/dynamic.md`` for the consistency model.
"""

from repro.util.lazy import lazy_attributes

# Each module and the public names it defines, resolved on first
# access: a server imports the delta codec from this package without
# loading the relabeler or the decomposition behind it.
__getattr__, __dir__ = lazy_attributes(globals(), {
    "repro.dynamic.delta": (
        "DeltaError", "DynamicError", "EdgeUpdate", "LabelDelta",
        "apply_delta_to_labels", "delta_from_dict", "delta_to_dict",
    ),
    "repro.dynamic.invalidate": (
        "affected_units", "affected_units_bruteforce", "affected_vertices",
        "touched_path_keys",
    ),
    "repro.dynamic.journal": (
        "JOURNAL_FORMAT", "JournalError", "JournalRead", "JournalWriter",
        "read_journal", "replay_journal",
    ),
    "repro.dynamic.rebuild": ("incremental_relabel",),
})

__all__ = [
    "DeltaError",
    "DynamicError",
    "EdgeUpdate",
    "JOURNAL_FORMAT",
    "JournalError",
    "JournalRead",
    "JournalWriter",
    "LabelDelta",
    "affected_units",
    "affected_units_bruteforce",
    "affected_vertices",
    "apply_delta_to_labels",
    "delta_from_dict",
    "delta_to_dict",
    "incremental_relabel",
    "read_journal",
    "replay_journal",
    "touched_path_keys",
]
