"""
Time-bin states and their measurement bases
===========================================

A time-bin qubit lives in two temporal modes of one photon: the early slot
|t0> and the late slot |t1>.  A rotatable half-wave plate upstream of the
bin-splitting element sets the superposition, so every protocol state is
labeled by one plate angle.  This script prepares the four key states and
shows how they project onto the two protocol bases.
"""

import numpy as np

from timebin_qkd.qubit import (
    BB84_SETTINGS,
    Basis,
    mub_states,
    overlap_probability,
    prepare_state,
)

print("protocol settings (plate angle -> state):")
for setting in BB84_SETTINGS:
    state = prepare_state(setting.hwp_angle_deg)
    print(
        f"  {setting.hwp_angle_deg:+6.1f} deg  ->  {setting.basis.name.lower()}:{setting.bit}"
        f"   amplitudes ({state.amp_t0:+.3f}, {state.amp_t1:+.3f})"
    )

print()
print("overlap probabilities |<b|a>|^2 against each basis:")
header = "".join(f"  {b.name.lower():>9}:{i}" for b in Basis for i in (0, 1))
print(" " * 14 + header)
for setting in BB84_SETTINGS:
    state = prepare_state(setting.hwp_angle_deg)
    row = []
    for basis in Basis:
        for target in mub_states(basis):
            row.append(overlap_probability(state, target))
    label = f"{setting.basis.name.lower()}:{setting.bit}"
    print(f"  {label:>11} " + "".join(f"  {p:11.3f}" for p in row))

# same-basis rows are deterministic, every cross-basis cell sits at 1/2:
# that is the mutually unbiased property the protocol security rests on
cross = [
    overlap_probability(prepare_state(s.hwp_angle_deg), t)
    for s in BB84_SETTINGS
    for b in Basis
    if b != s.basis
    for t in mub_states(b)
]
print()
print(f"cross-basis cells: min {min(cross):.12f}, max {max(cross):.12f}")
assert np.allclose(cross, 0.5, atol=1e-12)
