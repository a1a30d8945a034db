"""
Decoy-state bounds and the choice of decoy intensity
====================================================

A photon-number-splitting attacker could exploit multi-photon pulses, so
the key-rate bound only credits single-photon detections.  Interleaving a
weaker decoy class lets the receiver solve for a lower bound on the
single-photon yield Y1 and an upper bound on its error rate e1 from the
two measured gains plus the vacuum yield.  This script shows how tight
those bounds are on a channel with known ground truth, and how the bound
key rate depends on the decoy intensity.
"""

from timebin_qkd.analysis import AnalyticChannel, decoy_bounds

mu = 0.8
ch = AnalyticChannel(eta=0.0351, y0=1.6e-7, e_detector=0.008)
y1_true = ch.yield_n(1)
e1_true = ch.error_yield_n(1) / y1_true
print(f"ground truth: Y1 = {y1_true:.6f}, e1 = {e1_true:.6f}")
print()

# with exactly known gains the bounds keep tightening as the decoy weakens,
# so the bound rate grows monotonically toward nu -> 0 and the best decoy
# is simply the weakest one allowed.  In practice the floor comes from
# counting statistics: a decoy you cannot measure precisely is useless.
print("  nu     Y1 lower   (frac of true)   e1 upper   bound rate (Mbps)")
rates = []
for nu in (0.4, 0.2, 0.1, 0.05, 0.02, 0.005):
    est = decoy_bounds(
        ch.gain(mu), ch.error_rate(mu), ch.gain(nu), ch.error_rate(nu), mu, nu, ch.y0
    )
    rates.append(ch.rate(mu, nu, 80e6).r_bps)
    print(
        f"  {nu:5.3f}  {est.y1_lower:.6f}   ({est.y1_lower / y1_true:.4f})"
        f"         {est.e1_upper:.6f}   {rates[-1] / 1e6:.4f}"
    )
assert all(a < b for a, b in zip(rates, rates[1:]))

floor = 0.05
print()
print(f"best decoy above a nu >= {floor} measurement floor: nu = {floor}")
print(f"bound secret key rate there: {ch.rate(mu, floor, 80e6).r_bps / 1e6:.3f} Mbps")
