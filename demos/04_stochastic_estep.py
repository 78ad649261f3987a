"""Subsampled (stochastic) E-steps for larger graphs.

Shows the subsample growth and averaging-weight schedules, then fits the
same network with full-batch and stochastic E-steps and confirms both
reach the same partition.
"""

import sbanm
from sbanm.rng import substream

cfg = sbanm.SviConfig(a=150, seed=0)
n = 300
print("schedules for n=300, a=150:")
print("  t  subsample  avg-weight")
for t in range(6):
    print(f"  {t}   {sbanm.subsample_size(t, cfg, n):8d}  {sbanm.averaging_weight(t):10.4f}")

truth, sizes = sbanm.experiment2_spec()
net, labels = sbanm.gen_network(truth, sizes, substream(9, "network"))

full = sbanm.fit(net, sbanm.FitConfig(Q=4, seed=9))
stochastic = sbanm.fit(net, sbanm.FitConfig(Q=4, seed=9), svi=cfg)

print(f"\nfull batch:   {len(full.elbo_trace)} iterations, "
      f"exact recovery {sbanm.exact_recovery(labels, full.hard_membership)}")
print(f"subsampled:   {len(stochastic.elbo_trace)} iterations, "
      f"exact recovery {sbanm.exact_recovery(labels, stochastic.hard_membership)}")
print("both runs agree:",
      sbanm.exact_recovery(full.hard_membership, stochastic.hard_membership))
