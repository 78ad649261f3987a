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
float (``1.0``), no missing or extra pair.  Lines may end in \\n, \\r\\n or
\\r.  A file that breaks the grammar raises DataError naming the offending
line.  The reader makes one text pass: it fills the weights one pair tile
at a time, each tile's lines streamed into one np.loadtxt call and
checked vectorised.  Only a tile np.loadtxt rejects is read again, line
by line, to fill it or to raise.  A file shorter than n(n-1)/2 pair lines
of 2K + 4 bytes cannot hold the pairs; it goes to the line parser, which
raises before anything sized by the header is allocated.

The writer builds the text of one pair tile at a time with numpy and
streams the tiles, as ASCII bytes, into the atomic temp file.  A weight
with 1e-4 <= |w| < 1e14 gets its 17 digits from exact two-limb uint64
arithmetic (round half to even, as Python's float formatting does) and
prints in fixed notation; every other weight goes through format() one
at a time.  sbanm.text holds these kernels.

Responses (CSV): header ``subject,<layer>:<item>,...``; cells in {1,0,NA}.

Memberships (CSV): header ``node,block,tau_0,...,tau_{Q-1}``; tau cells
printed as format(t, ".17g") prints them.

Parameters (JSON): keys Q, K, alpha, psi, noise_block,
blocks[{mu,var,rho}], noise{mu,var}, elbo, icl, seed.  The noise law's
rho is 0 and not stored.  Q and K are JSON integers, noise_block an
integer or null; psi, every rho and every entry of alpha, mu and var are
JSON numbers.  The reader checks Q against the number of blocks, K
against every law's layer count and psi against (Q-1)/Q.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import re
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
    num_pairs,
    pair_tiles,
    tile_endpoints,
)
from .text import float_text, int_text, table_text

_R_CLAMP = 1e-7   # keeps agreement ratios inside atanh's domain
_P_CLAMP = 1e-12  # keeps strength ratios inside logit's domain
_ANSWERS = {"1": 1.0, "0": 0.0, "NA": math.nan}  # response CSV cells

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
    Each pair tile's counts are those of its rows r0..r1-1 against the
    nodes from r0 on, so no n x n array is built.
    """
    n, K = responses.n_subjects, len(responses.layers)
    weights = np.empty((num_pairs(n), K), order="F")
    for k, (_, block) in enumerate(responses.layers):
        # NaN (missing) is neither yes nor no.
        yes, no = (block == 1.0).astype(float), (block == 0.0).astype(float)
        for p0, p1, r0, r1 in pair_tiles(n):
            I, J = tile_endpoints(n, r0, r1)
            agree = yes[r0:r1] @ yes[r0:].T - no[r0:r1] @ no[r0:].T
            r = agree[I - r0, J - r0] / block.shape[1]
            weights[p0:p1, k] = np.arctanh(np.clip(r, -1.0 + _R_CLAMP, 1.0 - _R_CLAMP))
    labels = list(responses.subjects) if responses.subjects else None
    return MultilayerNetwork(n=n, K=K, weights=weights, node_labels=labels)


def normalize_logit(net: MultilayerNetwork) -> MultilayerNetwork:
    """Strength-normalize nonnegative count weights and logit-transform.

    Each weight is divided by its layer's total weight, clamped into
    (0, 1), and mapped through log(p/(1-p)), one pair tile at a time into
    the one layer-major output.
    """
    w = net.weights
    for k in range(net.K):
        if (w[:, k] < 0).any():
            raise DataError(
                f"strength normalization requires nonnegative weights; layer {k} "
                "has a negative weight"
            )
    sums = w.sum(axis=0)
    if np.any(sums <= 0):
        raise DataError("layer has no trips")
    out = np.empty(w.shape, order="F")
    for p0, p1, _, _ in pair_tiles(net.n):
        p = np.clip(w[p0:p1] / sums, _P_CLAMP, 1.0 - _P_CLAMP)
        np.log(p / (1.0 - p), out=out[p0:p1])
    return MultilayerNetwork(n=net.n, K=net.K, weights=out, node_labels=net.node_labels)


def _atomic_write(path: str, data: bytes | Iterable[bytes]) -> None:
    """Write bytes, or a stream of byte chunks, via a temp file in the same
    directory, then rename; on any error the temp file is removed and an
    existing file at path keeps its bytes.  The temp file is created with
    mode 0o666 less the umask, as open(path, "w") would create path."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    line that does not decode.  Latin-1 maps each byte to one character,
    so the lines split at \\n, \\r\\n and \\r as the text reader splits them."""
    with open(path, encoding="latin-1") as fh:
        for lineno, text in enumerate(fh, start=1):
            line = text.encode("latin-1")
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
        # One layer at a time: the text kernel holds about 200 bytes per value.
        weight_text = [float_text(net.weights[p0:p1, k]) for k in range(net.K)]
        yield table_text([int_text(I, width), int_text(J, width), *weight_text])


def write_network(net: MultilayerNetwork, path: str) -> None:
    """Serialize a network in canonical form (atomic, streamed write)."""
    _atomic_write(path, _network_chunks(net))


def _parse_pair_lines(
    path: str, lines: Iterator[str], n: int, K: int, p0: int, p1: int, r0: int,
    out: np.ndarray | None = None,
) -> None:
    """Parse the lines of pairs p0 <= p < p1, the first of them pair
    (r0, r0 + 1), one at a time into out[p] (out None: write nothing);
    raises the DataError that names the first offending line, which may be
    a line past the last pair."""
    n_pairs = num_pairs(n)
    expect_i, expect_j = r0, r0 + 1
    for p in range(p0, p1):
        lineno = p + 2
        line = next(lines, None)
        if line is None:
            raise DataError(f"{path}: incomplete dense pair list ({p} of {n_pairs} pairs)")
        line = line.rstrip("\n")
        if not line:
            raise DataError(f"{path}:{lineno}: unexpected blank line")
        parts = line.split("\t")
        if len(parts) != 2 + K:
            raise DataError(f"{path}:{lineno}: expected {2 + K} fields")
        if p >= n_pairs:
            raise DataError(f"{path}:{lineno}: more pairs than n(n-1)/2")
        try:
            # Python's int() and float() take a few spellings np.loadtxt
            # refuses, such as 1_5; such a line is still read.
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
        if out is not None:
            out[p] = vals
        expect_j += 1
        if expect_j == n:
            expect_i += 1
            expect_j = expect_i + 1


def _read_pairs(path: str, fh: TextIO, n: int, K: int) -> np.ndarray:
    """The weights of the pair lines that follow fh's position, layer-major.
    Each pair tile's lines are parsed with one np.loadtxt call and checked:
    their count, their endpoints and finite weights.  A tile that fails is
    read again by the line parser, which fills it or raises."""
    n_pairs = num_pairs(n)
    # readline, not next(fh): iterating fh itself disables fh.tell().
    lines = iter(fh.readline, "")
    # A pair line holds at least 2K + 3 characters and a line end, so a
    # shorter file cannot hold the pairs: the line parser raises.
    if os.fstat(fh.fileno()).st_size < n_pairs * (2 * K + 4):
        _parse_pair_lines(path, lines, n, K, 0, n_pairs, 0)
    weights = np.empty((n_pairs, K), order="F")
    dtype = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64, (K,))])
    for p0, p1, r0, r1 in pair_tiles(n):
        start = fh.tell()
        # np.loadtxt skips an empty line, and warns on a tile that yields
        # no row; a tile that starts with one is left to the line parser.
        first, rows = next(lines, ""), None
        if first.rstrip("\n"):
            try:
                rows = np.loadtxt(
                    itertools.chain([first], itertools.islice(lines, p1 - p0 - 1)),
                    dtype=dtype, delimiter="\t", comments=None, ndmin=1,
                )
            except ValueError:
                pass
        I, J = tile_endpoints(n, r0, r1)
        # array_equal is False unless the tile has all its p1 - p0 rows.
        if (
            rows is not None
            and np.array_equal(rows["i"], I)
            and np.array_equal(rows["j"], J)
            and np.isfinite(rows["w"]).all()
        ):
            weights[p0:p1] = rows["w"]
        else:
            fh.seek(start)
            # The old iterator stays exhausted once it has met the end.
            lines = iter(fh.readline, "")
            _parse_pair_lines(path, lines, n, K, p0, p1, r0, weights)
    if extra := next(lines, ""):
        # A line after the last pair: the line parser raises.
        _parse_pair_lines(path, iter([extra]), n, K, n_pairs, n_pairs + 1, n - 1)
    return weights


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
        weights = _read_pairs(path, fh, n, K)
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
            try:
                rows.append([_ANSWERS[cell.strip()] for cell in row[1:]])
            except KeyError as exc:
                cell = exc.args[0]
                raise DataError(f"{path}:{lineno}: cell {cell!r} not in {{1,0,NA}}") from None
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
    names = node_labels if node_labels is not None else [str(i) for i in range(n)]
    if hard.shape != (n,) or len(names) != n:
        raise DataError("hard labels, node labels and tau disagree on n")
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["node", "block"] + [f"tau_{q}" for q in range(Q)])
    for name, label, row in zip(names, hard.tolist(), tau.tolist()):
        writer.writerow([name, label] + [format(t, ".17g") for t in row])
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

    def integer(key: str, null: bool = False) -> int | None:
        # json gives true and false as bools, an int subclass.
        value = doc[key]
        if type(value) is int or (null and value is None):
            return value
        kind = "an integer or null" if null else "an integer"
        raise TypeError(f"{key} must be {kind}, got {value!r}")

    def number(key: str, value, many: bool = False):
        # A JSON number, or with `many` a list of them; not a string or bool.
        items = value if many and type(value) is list else [value]
        if all(type(v) in (int, float) for v in items):
            return value
        raise TypeError(f"{key} must be {'numbers' if many else 'a number'}, got {value!r}")

    def law(key: str, b: dict, rho) -> BlockParams:
        mu, var = (number(f"{key}.{k}", b[k], True) for k in ("mu", "var"))
        return BlockParams(mu=mu, var=var, rho=rho)

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
                law(f"blocks[{q}]", b, number(f"blocks[{q}].rho", b["rho"]))
                for q, b in enumerate(doc["blocks"])
            ],
            noise=law("noise", doc["noise"], 0.0),
            alpha=number("alpha", doc["alpha"], True),
            noise_block=integer("noise_block", null=True),
        )
        Q, K, psi = integer("Q"), integer("K"), float(number("psi", doc["psi"]))
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
