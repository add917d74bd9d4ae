"""The one content-hash key both checkpointing and memoization share.

:func:`flow_cache_key` answers "is this the same flow request?" for two
consumers with different lifetimes:

* :class:`~repro.resil.checkpoint.StageCheckpointer` — per-run stage
  artifacts, so a retried or resumed flow skips completed stages;
* the campaign result cache (:mod:`repro.campaign.cache`) — whole
  :class:`~repro.core.flow.FlowResult` objects memoized *across* runs
  and tenants, so identical student submissions return cached results.

Keeping the implementation in one module is the contract: the two paths
can never drift, because there is only one path.  The base payload is
(canonical RTL, PDK name, preset knobs, seed) — exactly what the stage
artifacts depend on — plus :data:`OUTPUT_VERSION`, the version of the
engine's outputs; a consumer whose artifact depends on more (the
result cache also keys on clock period, DRC strictness, …) folds the
surplus in through ``extra`` without disturbing base-key compatibility.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

#: Version of what the flow makes of a request.  Every key carries it,
#: so a persistent store written by an engine with other outputs misses
#: instead of serving its stale stage artifacts and results.  Bump it
#: with every change that alters placements, layouts or reports on
#: purpose.  Version 1: contained row legalization.
OUTPUT_VERSION = 1


def canonical(value):
    """A JSON-stable view of preset-like values (sorted sets, dataclasses)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (set, frozenset)):
        return sorted(str(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items())}
    return value


def flow_cache_key(module, pdk_name: str, preset, seed: int,
                   extra: dict | None = None) -> str:
    """Content hash of one flow request.

    The module contributes its canonical Verilog text (not its object
    identity), so two builds of the same RTL share checkpoints and any
    edit — however small — misses, and so does the same request to an
    engine of another :data:`OUTPUT_VERSION`.  With ``extra=None`` the
    key is the checkpoint key; a non-empty ``extra`` dict mixes
    additional request knobs into the hash.
    """
    from ..hdl.verilog import to_verilog

    payload = {
        "version": OUTPUT_VERSION,
        "rtl": to_verilog(module),
        "pdk": pdk_name,
        "preset": canonical(preset),
        "seed": seed,
    }
    if extra:
        payload["extra"] = canonical(extra)
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]
