"""Network construction from raw data, normalization transforms, layer
aggregation, and bit-exact file I/O.

File formats
------------
Network (TSV, UTF-8): header line ``#sbanm-net v1 n=<n> K=<K>``, then
exactly n(n-1)/2 lines ``i<TAB>j<TAB>w1<TAB>...<TAB>wK`` with 0-based
integer i < j in lexicographic pair order and finite weights; each
weight is printed as Python's format(w, ".17g") prints it, 17
significant digits, so write(read(f)) reproduces f byte for byte.  The
reader accepts exactly this grammar, with numbers in any spelling
Python's int() and float() take: no blank line, no index written as a
float (``1.0``), no missing or extra pair.  A file that breaks it raises
DataError naming the offending line, before anything sized by the header
is allocated.  The reader parses the pair lines with one streaming
np.loadtxt call, checks them vectorised, and re-reads the file line by
line only to report an error.

The writer builds the text of one pair tile at a time with numpy and
streams the tiles, as ASCII bytes, into the atomic temp file.  A weight
with 1e-4 <= |w| < 1e14 gets its 17 digits from exact two-limb uint64
arithmetic (round half to even, as Python's float formatting does) and
prints in fixed notation; every other weight goes through format() one
at a time.  sbanm.text holds these kernels; the membership writer
formats tau through the same code.

Responses (CSV): header ``subject,<layer>:<item>,...``; cells in {1,0,NA}.

Memberships (CSV): header ``node,block,tau_0,...,tau_{Q-1}``; tau cells
printed as format(t, ".17g") prints them.

Parameters (JSON): keys Q, K, alpha, psi, noise_block,
blocks[{mu,var,rho}], noise{mu,var}, elbo, icl, seed.  The reader checks
Q against the number of blocks and psi against (Q-1)/Q.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import tempfile
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from io import StringIO
from typing import TextIO

import numpy as np

from .errors import DataError, NumericalError
from .model import (
    BlockParams,
    ModelParams,
    MultilayerNetwork,
    NoiseParams,
    num_pairs,
    pair_tiles,
    tile_endpoints,
)
from .text import float_text, int_text, table_text

_R_CLAMP = 1e-7   # keeps agreement ratios inside atanh's domain
_P_CLAMP = 1e-12  # keeps strength ratios inside logit's domain

_NET_HEADER = re.compile(r"^#sbanm-net v1 n=(\d+) K=(\d+)$")


@dataclass
class ResponseMatrix:
    """Survey responses: per layer an (n_subjects, U_k) block of answers.

    Answers are stored as floats: 1.0 = yes, 0.0 = no, NaN = missing.
    """

    n_subjects: int
    layers: list[tuple[str, np.ndarray]]
    subjects: list[str] | None = None

    def __post_init__(self):
        if self.n_subjects < 2:
            raise DataError("need at least 2 subjects")
        checked = []
        for name, block in self.layers:
            block = np.asarray(block, dtype=float)
            if block.ndim != 2 or block.shape[0] != self.n_subjects:
                raise DataError(f"layer {name!r} has wrong shape")
            if block.shape[1] < 1:
                raise DataError("layer has no items")
            valid = np.isnan(block) | (block == 0.0) | (block == 1.0)
            if not valid.all():
                raise DataError(f"layer {name!r} has entries outside {{1,0,NA}}")
            checked.append((name, block))
        self.layers = checked


def fisher(r: float) -> float:
    """Fisher transform atanh(r) = 0.5*log((1+r)/(1-r)) for |r| < 1."""
    if not abs(r) < 1.0:
        raise ValueError("fisher transform requires |r| < 1")
    return math.atanh(r)


def build_similarity_network(responses: ResponseMatrix) -> MultilayerNetwork:
    """Agreement-ratio similarity network, one layer per response block.

    For each pair and item: +1 if both answered yes, -1 if both no,
    0 otherwise (missing counts as 0).  The per-layer mean agreement ratio
    is clamped away from +-1 and Fisher-transformed into the edge weight.
    """
    n = responses.n_subjects
    iu, ju = np.triu_indices(n, 1)
    cols = []
    for _, block in responses.layers:
        U = block.shape[1]
        yes = np.where(np.nan_to_num(block, nan=0.0) == 1.0, 1.0, 0.0)
        no = np.where(np.nan_to_num(block, nan=-1.0) == 0.0, 1.0, 0.0)
        h_sum = yes @ yes.T - no @ no.T
        r = h_sum[iu, ju] / U
        r = np.clip(r, -1.0 + _R_CLAMP, 1.0 - _R_CLAMP)
        cols.append(np.arctanh(r))
    return MultilayerNetwork(
        n=n,
        K=len(cols),
        weights=np.column_stack(cols),
        node_labels=list(responses.subjects) if responses.subjects else None,
    )


def normalize_logit(net: MultilayerNetwork) -> MultilayerNetwork:
    """Strength-normalize nonnegative count weights and logit-transform.

    Each weight is divided by its layer's total weight, clamped into
    (0, 1), and mapped through log(p/(1-p)).
    """
    w = net.weights
    negative = np.flatnonzero((w < 0).any(axis=0))
    if negative.size:
        raise DataError(
            f"strength normalization requires nonnegative weights; layer {negative[0]} "
            "has a negative weight"
        )
    sums = w.sum(axis=0)
    if np.any(sums <= 0):
        raise DataError("layer has no trips")
    p = np.clip(w / sums, _P_CLAMP, 1.0 - _P_CLAMP)
    return MultilayerNetwork(
        n=net.n, K=net.K, weights=np.log(p / (1.0 - p)), node_labels=net.node_labels
    )


def sum_layers(net: MultilayerNetwork) -> MultilayerNetwork:
    """Entrywise sum across layers; returns a single-layer network."""
    return MultilayerNetwork(
        n=net.n,
        K=1,
        weights=net.weights.sum(axis=1, keepdims=True),
        node_labels=net.node_labels,
    )


def _atomic_write(path: str, data: bytes | Iterable[bytes]) -> None:
    """Write bytes, or a stream of byte chunks, via a temp file in the same
    directory, then rename; on any error the temp file is removed and an
    existing file at path keeps its bytes."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines([data] if isinstance(data, bytes) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _undecodable(path: str) -> DataError:
    """The DataError for a file that is not valid UTF-8, naming its first
    line that does not decode."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return DataError(
                    f"{path}:{lineno}: not valid UTF-8 "
                    f"(byte {line[exc.start]:#04x} at column {exc.start + 1})"
                )
    return DataError(f"{path}: not valid UTF-8")


@contextmanager
def _open_utf8(path: str, newline: str | None = None) -> Iterator[TextIO]:
    """Open path for reading as UTF-8 text; a decoding error in the block
    raises _undecodable(path)."""
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise _undecodable(path) from exc


def _network_chunks(net: MultilayerNetwork) -> Iterator[bytes]:
    """The canonical text of a network as ASCII: the header, then the lines
    of one pair tile at a time."""
    yield f"#sbanm-net v1 n={net.n} K={net.K}\n".encode()
    width = len(str(net.n - 1))
    for p0, p1, r0, r1 in pair_tiles(net.n):
        I, J = tile_endpoints(net.n, r0, r1)
        weight_text = float_text(net.weights[p0:p1].T)
        yield table_text([int_text(I, width), int_text(J, width), *weight_text], "\t")


def write_network(net: MultilayerNetwork, path: str) -> None:
    """Serialize a network in canonical form (atomic, streamed write)."""
    _atomic_write(path, _network_chunks(net))


def _body_lines(fh: TextIO, n_pairs: int) -> Iterator[str]:
    """Yield the pair lines of a network file, raising ValueError unless
    there are exactly n_pairs of them and none is blank (np.loadtxt would
    skip a blank line silently)."""
    count = 0
    for line in fh:
        if line == "\n" or count == n_pairs:
            raise ValueError("not a canonical pair list")
        count += 1
        yield line
    if count != n_pairs:
        raise ValueError("not a canonical pair list")


def _read_pairs(fh: TextIO, n: int, K: int) -> np.ndarray | None:
    """Parse the pair lines with one streaming np.loadtxt call and check
    them vectorised; None unless the file is canonical."""
    try:
        dtype = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64, (K,))])
        rows = np.loadtxt(
            _body_lines(fh, num_pairs(n)), dtype=dtype, delimiter="\t",
            comments=None, ndmin=1,
        )
    except ValueError:
        return None
    if not np.isfinite(rows["w"]).all():
        return None
    for p0, p1, r0, r1 in pair_tiles(n):
        I, J = tile_endpoints(n, r0, r1)
        if not (np.array_equal(rows["i"][p0:p1], I) and np.array_equal(rows["j"][p0:p1], J)):
            return None
    return np.ascontiguousarray(rows["w"])


def _read_pairs_by_line(path: str, fh: TextIO, n: int, K: int) -> np.ndarray:
    """Parse the pair lines one at a time; raises the DataError that names
    the first offending line.  Runs only on files _read_pairs rejects."""
    n_pairs = num_pairs(n)
    rows = []
    expect_i, expect_j = 0, 1
    for lineno, raw in enumerate(fh, start=2):
        line = raw.rstrip("\n")
        if not line:
            raise DataError(f"{path}:{lineno}: unexpected blank line")
        parts = line.split("\t")
        if len(parts) != 2 + K:
            raise DataError(f"{path}:{lineno}: expected {2 + K} fields")
        if len(rows) >= n_pairs:
            raise DataError(f"{path}:{lineno}: more pairs than n(n-1)/2")
        try:
            i, j = int(parts[0]), int(parts[1])
            vals = [float(v) for v in parts[2:]]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        if (i, j) != (expect_i, expect_j):
            raise DataError(
                f"{path}:{lineno}: incomplete dense pair list "
                f"(expected pair {expect_i},{expect_j}, got {i},{j})"
            )
        if not all(math.isfinite(v) for v in vals):
            raise DataError(f"{path}:{lineno}: non-finite weight")
        rows.append(vals)
        expect_j += 1
        if expect_j == n:
            expect_i += 1
            expect_j = expect_i + 1
    if len(rows) != n_pairs:
        raise DataError(f"{path}: incomplete dense pair list ({len(rows)} of {n_pairs} pairs)")
    # Python's int() and float() take a few spellings np.loadtxt refuses,
    # such as 1_5; such a file is still read.
    return np.array(rows, dtype=float)


def read_network(path: str) -> MultilayerNetwork:
    """Parse a canonical network file; errors name the offending line."""
    with _open_utf8(path) as fh:
        header = fh.readline().rstrip("\n")
        m = _NET_HEADER.match(header)
        if not m:
            raise DataError(f"{path}:1: malformed header {header!r}")
        n, K = int(m.group(1)), int(m.group(2))
        if n < 2 or K < 1:
            raise DataError(f"{path}:1: invalid dimensions n={n}, K={K}")
        body = fh.tell()
        weights = _read_pairs(fh, n, K)
        if weights is None:
            fh.seek(body)
            weights = _read_pairs_by_line(path, fh, n, K)
    return MultilayerNetwork(n=n, K=K, weights=weights)


def read_responses(path: str) -> ResponseMatrix:
    """Parse a response CSV into per-layer answer blocks.

    Layers are taken from the ``<layer>:<item>`` column headers in order of
    first appearance.
    """
    with _open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}:1: empty file") from None
        if not header or header[0] != "subject":
            raise DataError(f"{path}:1: first column must be 'subject'")
        layer_cols: dict[str, list[int]] = {}
        for c, name in enumerate(header[1:], start=1):
            if ":" not in name:
                raise DataError(f"{path}:1: column {name!r} is not '<layer>:<item>'")
            layer = name.split(":", 1)[0]
            layer_cols.setdefault(layer, []).append(c)
        subjects = []
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} cells")
            subjects.append(row[0])
            vals = []
            for cell in row[1:]:
                cell = cell.strip()
                if cell == "1":
                    vals.append(1.0)
                elif cell == "0":
                    vals.append(0.0)
                elif cell == "NA":
                    vals.append(math.nan)
                else:
                    raise DataError(f"{path}:{lineno}: cell {cell!r} not in {{1,0,NA}}")
            rows.append(vals)
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 subjects")
    data = np.asarray(rows, dtype=float)
    layers = [(name, data[:, np.asarray(cols) - 1]) for name, cols in layer_cols.items()]
    return ResponseMatrix(n_subjects=len(rows), layers=layers, subjects=subjects)


def write_memberships(
    path: str,
    hard: np.ndarray,
    tau: np.ndarray,
    node_labels: list[str] | None = None,
) -> None:
    hard = np.asarray(hard, dtype=int)
    tau = np.atleast_2d(np.asarray(tau, dtype=float))
    n, Q = tau.shape
    if hard.shape != (n,):
        raise DataError("hard labels and tau disagree on n")
    names = node_labels if node_labels is not None else [str(i) for i in range(n)]
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["node", "block"] + [f"tau_{q}" for q in range(Q)])
    rows = table_text(list(float_text(tau.T)), ",").decode("ascii").splitlines()
    for i in range(n):
        writer.writerow([names[i], hard[i]] + rows[i].split(","))
    _atomic_write(path, buf.getvalue().encode("utf-8"))


def read_memberships(path: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Returns (node names, hard labels, tau matrix)."""
    with _open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}:1: empty file") from None
        if len(header) < 3 or header[:2] != ["node", "block"]:
            raise DataError(f"{path}:1: malformed membership header")
        Q = len(header) - 2
        names, hard, tau = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} cells")
            names.append(row[0])
            try:
                hard.append(int(row[1]))
                tau.append([float(v) for v in row[2:]])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    return names, np.asarray(hard, dtype=int), np.asarray(tau, dtype=float).reshape(-1, Q)


def write_params(
    path: str,
    params: ModelParams,
    elbo: float | None = None,
    icl: float | None = None,
    seed: int | None = None,
) -> None:
    doc = {
        "Q": params.Q,
        "K": params.K,
        "alpha": params.alpha.tolist(),
        "psi": params.psi,
        "noise_block": params.noise_block,
        "blocks": [
            {"mu": b.mu.tolist(), "var": b.var.tolist(), "rho": b.rho}
            for b in params.blocks
        ],
        "noise": {"mu": params.noise.mu.tolist(), "var": params.noise.var.tolist()},
        "elbo": elbo,
        "icl": icl,
        "seed": seed,
    }
    _atomic_write(path, (json.dumps(doc, indent=2) + "\n").encode("utf-8"))


def read_params(path: str) -> tuple[ModelParams, dict]:
    """Returns (ModelParams, extras) where extras holds elbo/icl/seed."""

    def finite(token: str) -> float:
        # JSON floats and the NaN/Infinity literals Python's json admits.
        value = float(token)
        if not math.isfinite(value):
            raise DataError(f"{path}: non-finite number {token}")
        return value

    with _open_utf8(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text, parse_float=finite, parse_constant=finite)
    except ValueError as exc:
        # JSONDecodeError, or an integer past Python's digit limit.
        raise DataError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    try:
        params = ModelParams(
            blocks=[
                BlockParams(mu=b["mu"], var=b["var"], rho=b["rho"])
                for b in doc["blocks"]
            ],
            noise=NoiseParams(mu=doc["noise"]["mu"], var=doc["noise"]["var"]),
            alpha=doc["alpha"],
            noise_block=doc["noise_block"],
        )
        Q, K, psi = int(doc["Q"]), int(doc["K"]), float(doc["psi"])
    except KeyError as exc:
        raise DataError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError, DataError, NumericalError) as exc:
        raise DataError(f"{path}: malformed value ({exc})") from exc
    if params.Q != Q:
        raise DataError(f"{path}: Q={Q} but {params.Q} blocks")
    if not abs(params.psi - psi) <= 1e-12:
        raise DataError(f"{path}: psi must equal (Q-1)/Q")
    if params.K != K:
        raise DataError(f"{path}: K does not match block dimensions")
    extras = {"elbo": doc.get("elbo"), "icl": doc.get("icl"), "seed": doc.get("seed")}
    return params, extras
