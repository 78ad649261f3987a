"""Generate the fixed trivariate benchmark network and recover it.

Walks the core loop end to end: draw a 300-node, 3-layer network whose
first block is governed by the global noise law, fit it with variational
EM, and compare fitted blocks and parameters against the ground truth.
"""

import numpy as np

import sbanm
from sbanm.rng import substream

truth, sizes = sbanm.experiment2_spec()
print("ground truth: Q=4 blocks, sizes", sizes.tolist(), "(block 0 is noise)")

net, labels = sbanm.gen_network(truth, sizes, substream(7, "network"))
print(f"network: n={net.n}, K={net.K}, {net.n_pairs} edges per layer")

result = sbanm.fit(net, sbanm.FitConfig(Q=4, seed=7))
print(f"converged={result.converged} after {len(result.elbo_trace)} iterations, "
      f"final bound {result.elbo:.1f}")

print("exact recovery:", sbanm.exact_recovery(labels, result.hard_membership))
print("designated noise block:", result.params.noise_block,
      "| signal probabilities:", np.round(result.state.P, 4))

matching = sbanm.optimal_matching(labels, result.hard_membership)
report = sbanm.param_report(truth, result.params, matching)
print("\nblock-mean estimates (fitted vs truth, after matching):")
for q in range(4):
    fitted_mu = result.params.blocks[report.matching[q]].mu
    tag = "noise " if q == truth.noise_block else "signal"
    print(f"  block {q} ({tag}): fitted {np.round(fitted_mu, 2)} "
          f"vs truth {truth.blocks[q].mu}")
print("median |percentage error| on signal means:",
      f"{np.median(report.mu_ape[1:]) * 100:.2f}%")
print("cross-layer correlations: fitted",
      np.round([result.params.blocks[report.matching[q]].rho for q in range(4)], 3),
      "vs truth", [b.rho for b in truth.blocks])
