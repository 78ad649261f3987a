"""Choose the number of blocks with the integrated complete likelihood.

Fits one planted 3-layer network under a range of hypothesized block
counts and shows that the ICL peaks at the generating value.
"""

import sbanm
from sbanm.rng import substream

spec = sbanm.SimSpec(
    n=150, K=3, Q=4,
    prior_means=(-2.0, 0.0, 2.0),
    noise_mu=(-3.0, -1.0, 1.0),
)
candidates = [sbanm.draw_candidate(spec, substream(33, "candidate", i)) for i in range(30)]
kept = sbanm.filter_separable([p for p, _ in candidates], 0.10)
params, sizes = candidates[kept[0]]
net, _ = sbanm.gen_network(params, sizes, substream(33, "network", kept[0]))
print(f"planted network: n={net.n}, K={net.K}, true Q=4, sizes {sizes.tolist()}")

print("\n  Q    ICL")
scores = {}
for Q in range(2, 7):
    result = sbanm.fit(net, sbanm.FitConfig(Q=Q, seed=33))
    scores[Q] = sbanm.icl(net, result)
    print(f"  {Q}  {scores[Q]:12.1f}")

best = max(scores, key=scores.get)
print(f"\nICL argmax: Q={best} (generating value 4)")
print("the penalty grows with Q, so overfitting splits stop paying once the"
      " likelihood gain flattens")
