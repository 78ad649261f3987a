"""References the tests check the library against: Gaussian log-densities
evaluated pair by pair and the dense symmetric matrix of per-pair values
(for the moment and packed passes), the survey similarity weights from
dense n x n agreement matrices (for the tile-walked builder), and the
network and membership file texts built one value at a time with
Python's format(v, ".17g") (for the vectorised writers), and the exact
evidence of a small network (for the bound the ELBO is).  The library
computes none of them; its tests import them from here.  The per-pair
densities and their square have their own tests in test_model.py.
"""

import csv
import io
import itertools
import math

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from sbanm.errors import NumericalError

LOG_2PI = math.log(2.0 * math.pi)


def log_density_batch(x, mu, cov) -> np.ndarray:
    """Multivariate normal log-density for each row of x (shape (m, K))."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    K = mu.size
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance not positive definite") from exc
    dev = x - mu
    sol = solve_triangular(L, dev.T, lower=True)
    quad = np.einsum("ij,ij->j", sol, sol)
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    return -0.5 * quad - 0.5 * logdet - 0.5 * K * LOG_2PI


def log_density(x, mu, cov) -> float:
    """Log-density of a single length-K observation under N(mu, cov)."""
    return float(log_density_batch(np.atleast_1d(x)[None, :], mu, cov)[0])


def pairs_to_square(n: int, values) -> np.ndarray:
    """Expand per-pair values to a symmetric (n, n) matrix with zero diagonal."""
    values = np.asarray(values)
    out = np.zeros((n, n) + values.shape[1:], dtype=float)
    # A boolean mask selects in C order, i.e. the pairs in lexicographic order.
    upper = np.arange(n)[:, None] < np.arange(n)
    out[upper] = values
    out.swapaxes(0, 1)[upper] = values
    return out


def law_log_densities(net, params) -> np.ndarray:
    """Every pair's log-density under each law, as a (Q + 1, pairs) array:
    row 0 the noise law, row q + 1 block q's law."""
    laws = [params.noise, *params.blocks]
    return np.array([log_density_batch(net.weights, b.mu, b.covariance()) for b in laws])


def log_evidence(net, params) -> float:
    """log p(Y; params) = log sum_c sum_z (1/Q) prod_i alpha_{z_i}
    prod_{i<j} f(y_ij | z, c), summed term by term over the noise block c
    and the memberships z (Q^(n+1) terms): pair (i, j) lies under block
    q's law when z_i = z_j = q != c, else under the noise law."""
    Q = params.Q
    f = law_log_densities(net, params)
    I, J = np.triu_indices(net.n, 1)
    z = np.array(list(itertools.product(range(Q), repeat=net.n)))
    zi, same = z[:, I], z[:, I] == z[:, J]
    with np.errstate(divide="ignore"):  # alpha_q = 0 leaves its z out
        prior = np.log(params.alpha)[z].sum(axis=1) - math.log(Q)
    pairs = np.arange(I.size)
    terms = [prior + f[np.where(same & (zi != c), zi + 1, 0), pairs].sum(axis=1) for c in range(Q)]
    return float(logsumexp(terms))


def similarity_weights(responses) -> np.ndarray:
    """The (pairs, K) Fisher-transformed agreement ratios of a
    ResponseMatrix, clamped to 1e-7 inside +-1, each layer from its dense
    n x n agreement counts."""
    clamp = 1e-7
    iu, ju = np.triu_indices(responses.n_subjects, 1)
    cols = []
    for _, block in responses.layers:
        yes = np.where(np.nan_to_num(block, nan=0.0) == 1.0, 1.0, 0.0)
        no = np.where(np.nan_to_num(block, nan=-1.0) == 0.0, 1.0, 0.0)
        h_sum = yes @ yes.T - no @ no.T
        r = np.clip(h_sum[iu, ju] / block.shape[1], -1.0 + clamp, 1.0 - clamp)
        cols.append(np.arctanh(r))
    return np.array(cols).T


def reference_network_text(net) -> str:
    """The canonical network text, written one pair at a time."""
    iu, ju = np.triu_indices(net.n, 1)
    lines = [f"#sbanm-net v1 n={net.n} K={net.K}"]
    for p in range(net.n_pairs):
        vals = "\t".join(format(float(v), ".17g") for v in net.weights[p])
        lines.append(f"{iu[p]}\t{ju[p]}\t{vals}")
    return "\n".join(lines) + "\n"


def reference_memberships_text(names, hard, tau) -> str:
    """The memberships CSV, written one row at a time by csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["node", "block"] + [f"tau_{q}" for q in range(tau.shape[1])])
    for name, label, row in zip(names, hard, tau):
        writer.writerow([name, int(label)] + [format(float(v), ".17g") for v in row])
    return buf.getvalue()
