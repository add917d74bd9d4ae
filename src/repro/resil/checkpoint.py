"""Per-stage flow checkpoints keyed by a content hash of the request.

The same shape as training-job checkpointing: a long flow serializes its
expensive intermediate artifacts (synthesis result, floorplan, placement,
clock tree, routing) under a key derived from *what was asked for* — the
RTL's canonical Verilog, the PDK, the preset knobs and the seed — so a
retried or resumed run skips every stage that already completed, and a
request whose inputs changed in any way misses cleanly.

The artifacts live in a :class:`~repro.resil.store.Store`: a
:class:`~repro.resil.store.MemoryStore` for the hub's retry loop, a
:class:`~repro.resil.store.DirectoryStore` for the CLI
``--checkpoint-dir``.  :class:`StageCheckpointer` stores pickled bytes,
so a loaded artifact is a private copy on either backend — a resumed
flow can never mutate the checkpointed state of an earlier one.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Callable, TypeVar

from ..obs.metrics import MetricsRegistry

# The key implementation is shared with the campaign result cache
# (repro.campaign.cache) — one function, so the checkpoint and
# memoization paths can never drift.  Re-exported here for its
# historical import site.
from .cachekey import flow_cache_key  # noqa: F401
from .store import Store

T = TypeVar("T")


@dataclass
class StageCheckpointer:
    """A store bound to one flow request's key.

    The flow runner and the backend orchestrator share this object:
    ``load`` returns ``None`` when resuming is disabled, so callers need
    no resume conditionals of their own.  Stage ``s`` lives under the
    store key ``f"{key}.{s}"``.
    """

    store: Store
    key: str
    resume: bool = True

    def load(self, stage: str):
        """The checkpointed artifact, or ``None`` on a miss."""
        if not self.resume:
            return None
        data = self.store.get(f"{self.key}.{stage}")
        return None if data is None else pickle.loads(data)

    def save(self, stage: str, artifact) -> None:
        self.store.put(
            f"{self.key}.{stage}", pickle.dumps(artifact, protocol=4)
        )


def resume_or_run(
    checkpoints: StageCheckpointer | None,
    stage: str,
    compute: Callable[[], T],
    metrics: MetricsRegistry,
) -> tuple[T, bool]:
    """The one load-or-compute path for a checkpointed flow stage.

    Returns ``stage``'s artifact and whether it was loaded.  A load
    counts ``resil.checkpoint.hit`` or ``.miss``; a miss runs
    ``compute`` and saves its result.  Without ``checkpoints`` it only
    runs ``compute``.
    """
    if checkpoints is None:
        return compute(), False
    artifact = checkpoints.load(stage)
    cached = artifact is not None
    metrics.counter(f"resil.checkpoint.{'hit' if cached else 'miss'}").inc()
    if not cached:
        artifact = compute()
        checkpoints.save(stage, artifact)
    return artifact, cached
