"""A fixed subset of scripts/recovery_suites.py's separable suite, where the
separable regime promises a result: exact recovery with the planted noise
block designated as noise, no empty block and no ELBO drop."""

import runpy
from pathlib import Path

import pytest

SUITES = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "recovery_suites.py"))


@pytest.mark.parametrize(
    "layers, seed",
    [
        # Under a P update that did not maximise the ELBO, this fit ended
        # at ARI 0.731 with an empty block and an ELBO drop.
        pytest.param(3, 16, id="layers3-seed16"),
        pytest.param(3, 4, id="layers3-seed4"),
        pytest.param(2, 18, id="layers2-seed18"),
    ],
)
def test_separable_network_is_recovered(layers, seed):
    outcome = SUITES["fit_outcome"]("separable", layers, seed)
    assert outcome.exact, f"ARI {outcome.ari:.3f}"
    assert outcome.noise_typed
    assert not outcome.empty_block
    assert not outcome.elbo_drop
