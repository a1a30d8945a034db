"""
A full key-distribution session and its secret key rate
=======================================================

One session sends every preparation setting through the lossy channel, the
switch, and the gated detectors, then reduces the click record twice: to a
preparation/outcome probability matrix (the tomographic fingerprint of the
link) and to a decoy-state secret key rate.  Roughly: the signal and decoy
gains bound the single-photon yield from below and its error rate from
above, error correction pays f * H2(E) per sifted bit, and what remains is
multiplied up to bits per second by the pulse rate.
"""

from timebin_qkd.experiment import ExperimentConfig, run_session

cfg = ExperimentConfig(seed=2024)
res = run_session(cfg, pulses=500_000, workers=4)

print("probability matrix, signal class (rows: sent, columns: measured):")
labels = ("phase:0", "phase:1", "time:0", "time:1")
print(" " * 10 + "".join(f"{c:>9}" for c in labels))
for label, row in zip(labels, res.matrix):
    print(f"  {label:>7} " + "".join(f"{v:9.4f}" for v in row))

rep = res.report
print()
print(f"signal gain Q_mu      = {rep.q_mu:.6f}")
print(f"signal QBER E_mu      = {rep.e_mu:.4f}")
print(f"decoy gain Q_nu       = {rep.q_nu:.6f}")
print(f"background yield Y_0  = {rep.y0:.2e}")
print(f"single-photon yield   >= {rep.y1_lower:.5f}")
print(f"single-photon error   <= {rep.e1_upper:.5f}")
print(f"secret fraction       = {rep.r_per_pulse:.6f} bits/pulse")
print(f"secret key rate       = {rep.r_bps / 1e6:.3f} Mbps at {rep.rep_rate_hz / 1e6:.0f} MHz")
if rep.flags:
    print(f"flags: {rep.flags}")
