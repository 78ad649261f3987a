"""References the tests check the library against: Gaussian log-densities
evaluated pair by pair and the dense symmetric matrix of per-pair values
(for the moment and packed passes), the survey similarity weights from
dense n x n agreement matrices (for the tile-walked builder), and the
network and membership file texts built one value at a time with
Python's format(v, ".17g") (for the vectorised writers).  The library
computes none of them; its tests import them from here.  The numeric
ones have their own tests in test_model.py.
"""

import csv
import io
import math

import numpy as np
from scipy.linalg import solve_triangular

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
