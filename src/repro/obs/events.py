"""The structured event log: single-line JSON through stdlib logging.

Every operationally interesting state change — a slow request, a
background-rebuild swap, a generation rotation, an admission rejection,
a refused journal write — goes through :func:`emit`, which
renders one JSON object per line on the ``repro.obs.events`` logger.
Consumers attach an ordinary ``logging`` handler; nothing is emitted
(and no JSON is serialized) unless the logger is enabled for INFO, so
an unconfigured process pays one level check per event.

The line format is stable: keys are sorted, the event name is under
``"event"`` and the wall-clock emission time under ``"ts"`` (epoch
seconds).  Values that are not JSON-native are stringified rather than
raised on — an event sink must never take down the write path it is
reporting about.
"""

from __future__ import annotations

import json
import logging
import time
from typing import Any

#: The logger every structured event goes through.
logger = logging.getLogger("repro.obs.events")


def emit(event: str, **fields: Any) -> None:
    """Emit one structured event as a single JSON line.

    ``fields`` become top-level keys; ``event`` and ``ts`` are reserved
    (a field named ``event`` would be overwritten).
    """
    if not logger.isEnabledFor(logging.INFO):
        return
    payload = dict(fields)
    payload["event"] = event
    payload["ts"] = round(time.time(), 6)
    logger.info("%s", json.dumps(payload, sort_keys=True, default=str))


__all__ = ["emit", "logger"]
