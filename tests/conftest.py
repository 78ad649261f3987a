import numpy as np
import pytest

import sbanm
from sbanm.rng import substream


def separable_params_2layer():
    """Fixed, well-separated 2-layer 3-block parameter set (block 0 noise).

    Block means are far apart both per layer and on the summed graph, so
    spectral initialization and the fixed point both behave; used wherever
    a test needs a fit that reliably recovers the planted partition.
    """
    return sbanm.ModelParams(
        blocks=[
            sbanm.BlockParams(mu=(-1.0, 0.0), var=(1.0, 1.0), rho=0.0),
            sbanm.BlockParams(mu=(2.5, 4.0), var=(0.8, 0.5), rho=0.4),
            sbanm.BlockParams(mu=(-3.0, -2.5), var=(0.6, 1.2), rho=0.2),
        ],
        noise=sbanm.NoiseParams(mu=(-1.0, 0.0), var=(1.0, 1.0)),
        alpha=(0.4, 0.35, 0.25),
        noise_block=0,
    )


def planted_network(sizes=(24, 20, 16), seed=0):
    params = separable_params_2layer()
    net, labels = sbanm.gen_network(
        params, np.asarray(sizes), substream(seed, "network")
    )
    return net, labels, params


def offset_planted_network(seed=0):
    """Planted 2-layer 3-block network with every mean near 20 and every
    variance near 0.06 (block 0 noise): Gaussian sums over its pairs lose
    digits to cancellation unless the weights are centred."""
    params = sbanm.ModelParams(
        blocks=[
            sbanm.BlockParams(mu=(20.0, 20.1), var=(0.06, 0.07), rho=0.0),
            sbanm.BlockParams(mu=(20.6, 19.5), var=(0.05, 0.06), rho=0.3),
            sbanm.BlockParams(mu=(19.4, 20.5), var=(0.07, 0.05), rho=-0.2),
        ],
        noise=sbanm.NoiseParams(mu=(20.0, 20.1), var=(0.06, 0.07)),
        alpha=(0.4, 0.3, 0.3),
        noise_block=0,
    )
    net, labels = sbanm.gen_network(
        params, np.array([40, 30, 30]), substream(seed, "offset-network")
    )
    return net, labels, params


def random_network(n, K, seed=0):
    rng = substream(seed, "raw-net")
    return sbanm.MultilayerNetwork(
        n=n, K=K, weights=rng.normal(size=(n * (n - 1) // 2, K))
    )


@pytest.fixture
def planted60():
    return planted_network()
