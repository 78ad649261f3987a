"""Choose the number of blocks with the integrated complete likelihood.

Fits one planted 3-layer network under a range of hypothesized block
counts and shows that the ICL peaks at the generating value.
"""

import sbanm

spec = sbanm.experiment1_spec(n=150, K=3, Q=4)
i, params, sizes = sbanm.draw_separable(spec, 33, candidates=30, keep_frac=0.10)[0]
net, _ = sbanm.candidate_network(params, sizes, 33, i)
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
