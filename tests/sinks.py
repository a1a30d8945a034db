"""A list sink for run_session, and the session's record joined from its blocks."""

from __future__ import annotations

import numpy as np

from timebin_qkd.detection import PulseLedger, TimeTags, _joined
from timebin_qkd.experiment import SessionResult, run_session


def tagged_session(config, **kwargs) -> tuple[SessionResult, TimeTags, PulseLedger]:
    """run_session(config, **kwargs) with a sink that keeps every block.

    Returns the result, then the tags and the ledger of the whole session:
    the blocks joined in the order the sink received them, which is
    pulse-index order.
    """
    blocks = []
    res = run_session(config, sink=lambda tags, ledger: blocks.append((tags, ledger)), **kwargs)
    tags, ledgers = zip(*blocks)

    def joined(parts, names):
        return [np.concatenate([getattr(p, name) for p in parts]) for name in names]

    return (
        res,
        TimeTags(*joined(tags, ("pulse_index", "detector_id", "timestamp_ps"))),
        _joined(ledgers),
    )
