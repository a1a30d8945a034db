"""Row-by-row reference versions of the ledger writer, reader and accumulate.

These are the plain Python loops the vectorized functions in
`timebin_qkd.detection` replaced.  They are slow and kept only so the tests
can require byte-identical files and identical counts from the array code.
"""

from __future__ import annotations

import numpy as np

from timebin_qkd.detection import ClickEvent, PulseLedger, SessionCounts, WindowLayout


def write_pulse_ledger_rows(path, ledger: PulseLedger) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write("pulse_index,intensity_class,alpha,bit\n")
        for row in range(len(ledger)):
            f.write(
                f"{ledger.start_index + row},{int(ledger.class_idx[row])},"
                f"{int(ledger.alpha[row])},{int(ledger.bit[row])}\n"
            )


def read_pulse_ledger_rows(path) -> PulseLedger:
    idx, cls, alpha, bit = [], [], [], []
    with open(path, "r", encoding="ascii") as f:
        f.readline()
        for line in f:
            line = line.strip()
            if not line:
                continue
            a, b, c, d = line.split(",")
            idx.append(int(a))
            cls.append(int(b))
            alpha.append(int(c))
            bit.append(int(d))
    return PulseLedger(idx[0], np.array(cls), np.array(alpha), np.array(bit))


def accumulate_loop(
    tags: list[ClickEvent], layout: WindowLayout, ledger: PulseLedger
) -> SessionCounts:
    out = SessionCounts.zeros()
    flat_sent = ledger.class_idx * 4 + ledger.alpha * 2 + ledger.bit
    out.pulses_sent += np.bincount(flat_sent, minlength=12).reshape(3, 2, 2)

    classified: dict[int, tuple[int, int]] = {}
    multi: set[int] = set()
    for tag in tags:
        hit = layout.classify(tag.timestamp_ps)
        if hit is None:
            continue
        if tag.pulse_index in classified or tag.pulse_index in multi:
            classified.pop(tag.pulse_index, None)
            multi.add(tag.pulse_index)
            continue
        classified[tag.pulse_index] = (int(hit[0]), hit[1])
    for pi, (beta, j) in classified.items():
        row = pi - ledger.start_index
        out.counts[ledger.class_idx[row], ledger.alpha[row], ledger.bit[row], beta, j] += 1
    return out
