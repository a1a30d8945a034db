"""
Key rate against channel loss
=============================

Sweeping the channel attenuation maps out the operating envelope of the
link.  In the regime where errors stay small the secret key rate scales
like the transmittance, i.e. it drops by about a factor of ten for every
10 dB of added loss; the last column shows the measured rate normalized by
that first-order expectation.  Every sweep point reuses the same random
streams, so the curve is smooth rather than re-randomized per point; the
deepest points still scatter a little because few errors survive there.
"""

import numpy as np

from timebin_qkd.experiment import ExperimentConfig, run_loss_sweep
from timebin_qkd.source import transmittance

cfg = ExperimentConfig(seed=2024)
losses = [0.45, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
sweep = run_loss_sweep(cfg, losses, pulses=600_000)

fixed_db = cfg.budget.total_db - cfg.budget.channel_db
r0 = sweep.rates_bps[0]
print("channel   total    Q_mu       E_mu     R            R / (R_0 T/T_0)")
for db, rate, rep in zip(sweep.channel_db, sweep.rates_bps, sweep.reports):
    total = fixed_db + db
    expect = r0 * transmittance(total) / transmittance(fixed_db + losses[0])
    print(
        f"{db:5.2f} dB {total:5.2f} dB  {rep.q_mu:.6f}  {rep.e_mu:.4f}  "
        f"{rate / 1e3:7.1f} kbps   {rate / expect:.3f}"
    )

drop = 10.0 * np.log10(sweep.rates_bps[0] / sweep.rates_bps[-1])
span = losses[-1] - losses[0]
print()
print(f"rate fell {drop:.1f} dB over {span:.1f} dB of added loss")
