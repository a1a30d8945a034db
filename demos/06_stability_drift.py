"""
Holding the link stable for hours
=================================

Free-running setups drift: the pump power wanders (scaling the driven
phase) and the pump polarization slowly walks away from 45 degrees.  Both
are modeled as bounded random walks on an hourly grid.  Because the switch
sits at its sweet spot (the efficiency is quadratic around theta = pi/4,
delta_phi = pi), small drifts barely dent the readout fidelity, which is
what makes day-long unattended runs possible.  The aggregate error rate
over the whole run is what enters the key-rate bound.
"""

from timebin_qkd.experiment import ExperimentConfig, run_stability
from timebin_qkd.qubit import Basis

cfg = ExperimentConfig(seed=2024)
res = run_stability(cfg, hours=8.0, samples_per_hour=1, pulses_per_sample=150_000)

keys = [(Basis.PHASE, 0), (Basis.PHASE, 1), (Basis.TIME, 0), (Basis.TIME, 1)]
print("hour  " + "".join(f"{'F(' + b.name.lower() + ':' + str(i) + ')':>10}" for b, i in keys) + "    QBER")
for k, t in enumerate(res.times_h):
    row = "".join(f"{res.fidelity_series[key][k]:9.4f} " for key in keys)
    print(f"{t:4.0f}  {row}  {res.qber_series[k]:.4f}")

print()
print("mean fidelities over the run:")
for basis, bit in keys:
    print(f"  {basis.name.lower()}:{bit}  {res.mean_fidelities[(basis, bit)]:.4f}")
print(f"aggregate QBER: {res.qber_aggregate:.4f}")
print(f"key rate from the pooled counts: {res.report.r_bps / 1e6:.3f} Mbps")
