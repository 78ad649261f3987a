import json
import math
import os
import re
import stat
import struct
import tempfile
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sbanm
from sbanm import (
    MultilayerNetwork,
    ResponseMatrix,
    build_similarity_network,
    fisher,
    normalize_logit,
    read_network,
    write_network,
)
from sbanm import io as sbanm_io
from sbanm import model
from sbanm.errors import DataError
from sbanm.model import pair_tiles
from sbanm.text import float_text, table_text

from conftest import random_network, separable_params_2layer
from reference import reference_memberships_text, reference_network_text, similarity_weights


def responses_from_rows(rows):
    """rows: list of per-subject answer strings like 'yy n.' ('.'=missing)."""
    mapping = {"y": 1.0, "n": 0.0, ".": math.nan}
    data = np.array([[mapping[c] for c in row] for row in rows])
    return ResponseMatrix(n_subjects=len(rows), layers=[("L", data)])


class TestSimilarity:
    def test_offsetting_agreements(self):
        net = build_similarity_network(responses_from_rows(["yynn", "ynny"]))
        # h = (1, 0, -1, 0) -> r = 0 -> weight 0
        assert net.weights[0, 0] == 0.0

    def test_full_agreement_is_clamped_finite(self):
        net = build_similarity_network(responses_from_rows(["yyyy", "yyyy"]))
        expected = math.atanh(1.0 - 1e-7)
        assert net.weights[0, 0] == pytest.approx(expected, rel=1e-12)
        assert 8.0 < net.weights[0, 0] < 9.0

    def test_all_yes_equals_all_no_in_magnitude(self):
        w_yes = build_similarity_network(responses_from_rows(["yy", "yy"])).weights[0, 0]
        w_no = build_similarity_network(responses_from_rows(["nn", "nn"])).weights[0, 0]
        assert w_yes == pytest.approx(-w_no, rel=1e-12)
        assert w_yes == pytest.approx(math.atanh(1.0 - 1e-7), rel=1e-12)

    def test_missing_counts_as_zero(self):
        # ('y','.') and ('n','.') items contribute nothing either way.
        net = build_similarity_network(responses_from_rows(["y.yn", "..yn"]))
        # items: (y,.)=0, (.,.)=0, (y,y)=+1, (n,n)=-1 -> r=0
        assert net.weights[0, 0] == 0.0

    def test_item_order_invariance(self):
        a = build_similarity_network(responses_from_rows(["ynyn", "yny."]))
        b = build_similarity_network(responses_from_rows(["nyny", "yny."][::-1]))
        rows = ["ynyn", "yny."]
        perm = [2, 0, 3, 1]
        permuted = ["".join(r[p] for p in perm) for r in rows]
        c = build_similarity_network(responses_from_rows(permuted))
        assert np.array_equal(a.weights, c.weights)

    def test_layers_are_built_layer_major(self, monkeypatch):
        # Two layers of 3 and 2 items; no copy between building and storing.
        rng = np.random.default_rng(8)
        data = rng.choice([0.0, 1.0, math.nan], size=(6, 5))
        responses = ResponseMatrix(n_subjects=6, layers=[("a", data[:, :3]), ("b", data[:, 3:])])
        given = []

        def network(**kwargs):
            given.append(kwargs["weights"])
            return MultilayerNetwork(**kwargs)

        monkeypatch.setattr(sbanm_io, "MultilayerNetwork", network)
        net = build_similarity_network(responses)
        assert net.weights is given[0] and net.weights.flags.f_contiguous
        for k, (_, block) in enumerate(responses.layers):
            single = ResponseMatrix(n_subjects=6, layers=[("L", block)])
            assert np.array_equal(net.weights[:, k], build_similarity_network(single).weights[:, 0])

    # Tiles of 1 pair hold one row each.  Tiles of 7 and 40 pairs hold one
    # row longer than the tile at the start of n = 23 and several short
    # rows at its end.  The default tile holds all pairs of every n here.
    @pytest.mark.parametrize("tile", [1, 7, 40, model.PAIR_TILE])
    def test_weights_are_the_dense_reference_bytes(self, tile, monkeypatch):
        monkeypatch.setattr(model, "PAIR_TILE", tile)
        rng = np.random.default_rng(tile)
        for n in (2, 3, 9, 23):
            data = rng.choice([0.0, 1.0, math.nan], size=(n, 7), p=[0.45, 0.45, 0.1])
            # All yes, all no and all missing clamp at +-1 and give 0.
            data[:3] = np.array([[1.0], [0.0], [math.nan]])[:n]
            responses = ResponseMatrix(
                n_subjects=n, layers=[("a", data[:, :4]), ("b", data[:, 4:])]
            )
            got = build_similarity_network(responses).weights
            assert got.tobytes() == similarity_weights(responses).tobytes()

    def test_peak_memory_is_below_twice_the_weights(self):
        rng = np.random.default_rng(400)
        data = rng.choice([0.0, 1.0, math.nan], size=(400, 20), p=[0.45, 0.45, 0.1])
        responses = ResponseMatrix(
            n_subjects=400, layers=[("a", data[:, :10]), ("b", data[:, 10:])]
        )
        tracemalloc.start()
        try:
            net = build_similarity_network(responses)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * net.weights.nbytes

    def test_empty_layer_rejected(self):
        with pytest.raises(DataError, match="no items"):
            ResponseMatrix(n_subjects=2, layers=[("L", np.zeros((2, 0)))])


class TestFisher:
    def test_values(self):
        assert fisher(0.0) == 0.0
        assert fisher(0.5) == pytest.approx(0.5493, abs=5e-5)
        assert fisher(-0.5) == -fisher(0.5)

    def test_out_of_range(self):
        for r in (1.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                fisher(r)

    def test_odd_increasing_invertible_on_grid(self):
        grid = np.linspace(-0.999, 0.999, 401)
        vals = np.array([fisher(r) for r in grid])
        assert np.all(np.diff(vals) > 0)
        assert np.allclose(vals, -vals[::-1], atol=1e-12)
        assert np.allclose(np.tanh(vals), grid, atol=1e-12)


class TestNormalizeLogit:
    def test_equal_edges_map_to_zero(self):
        net = MultilayerNetwork(n=2 + 1, K=1, weights=np.array([[1.0], [1.0], [0.0]]))
        # layer sum 2: weights (1,1,0) -> p=(0.5,0.5,clamped)
        out = normalize_logit(net)
        assert out.weights[0, 0] == 0.0
        assert out.weights[1, 0] == 0.0

    def test_quarter_three_quarter(self):
        net = MultilayerNetwork(n=2, K=2, weights=np.array([[1.0, 3.0]]))
        # single pair per layer: p = 1 -> clamped; use two pairs instead
        net = MultilayerNetwork(n=3, K=1, weights=np.array([[1.0], [3.0], [0.0]]))
        out = normalize_logit(net)
        assert out.weights[0, 0] == pytest.approx(math.log(0.25 / 0.75), abs=1e-12)
        assert out.weights[1, 0] == pytest.approx(math.log(0.75 / 0.25), abs=1e-12)
        assert out.weights[0, 0] == pytest.approx(-1.0986, abs=5e-5)

    def test_zero_edge_clamped_finite(self):
        net = MultilayerNetwork(n=3, K=1, weights=np.array([[1.0], [3.0], [0.0]]))
        out = normalize_logit(net)
        assert out.weights[2, 0] == pytest.approx(math.log(1e-12 / (1 - 1e-12)), rel=1e-9)
        assert out.weights[2, 0] == pytest.approx(-27.63, abs=0.01)

    def test_zero_sum_layer_rejected(self):
        net = MultilayerNetwork(n=2, K=1, weights=np.array([[0.0]]))
        with pytest.raises(DataError, match="no trips"):
            normalize_logit(net)

    def test_negative_weights_rejected(self):
        net = MultilayerNetwork(n=2, K=1, weights=np.array([[-1.0]]))
        with pytest.raises(DataError):
            normalize_logit(net)

    def test_negative_weight_names_first_layer(self):
        weights = np.array([[1.0, 2.0, 3.0], [1.0, 0.5, -1.0], [0.0, -2.0, 1.0]])
        net = MultilayerNetwork(n=3, K=3, weights=weights)
        with pytest.raises(DataError, match="layer 1 has a negative weight"):
            normalize_logit(net)

    def test_tiles_match_the_whole_array_formula_in_bounded_memory(self):
        # About 30 pair tiles; the whole-array formula allocates five arrays
        # the size of the weights.
        n, K = 600, 3
        rng = np.random.default_rng(12)
        counts = rng.poisson([0.5, 3.0, 4000.0], size=(model.num_pairs(n), K)).astype(float)
        net = MultilayerNetwork(n=n, K=K, weights=counts)
        tracemalloc.start()
        try:
            out = normalize_logit(net)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        clamp = sbanm_io._P_CLAMP
        p = np.clip(net.weights / net.weights.sum(axis=0), clamp, 1.0 - clamp)
        assert out.weights.tobytes() == np.log(p / (1.0 - p)).tobytes()
        assert out.weights.flags.f_contiguous
        assert peak <= 1.25 * out.weights.nbytes


class TestNetworkFile:
    def test_canonical_small_file(self, tmp_path):
        path = tmp_path / "net.tsv"
        path.write_text(
            "#sbanm-net v1 n=3 K=2\n"
            "0\t1\t1.5\t-2\n"
            "0\t2\t0\t0.25\n"
            "1\t2\t3\t4\n"
        )
        net = read_network(str(path))
        assert net.n == 3 and net.K == 2 and net.n_pairs == 3
        assert net.weights[1].tolist() == [0.0, 0.25]

    def test_round_trip_is_byte_identical(self, tmp_path):
        for seed in range(5):
            net = random_network(9, 3, seed=seed)
            p1 = tmp_path / f"a{seed}.tsv"
            p2 = tmp_path / f"b{seed}.tsv"
            write_network(net, str(p1))
            write_network(read_network(str(p1)), str(p2))
            assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_reproduces_weights_exactly(self, tmp_path):
        net = random_network(8, 2, seed=11)
        path = tmp_path / "net.tsv"
        write_network(net, str(path))
        assert np.array_equal(read_network(str(path)).weights, net.weights)

    def test_missing_pair_detected(self, tmp_path):
        path = tmp_path / "net.tsv"
        path.write_text(
            "#sbanm-net v1 n=3 K=1\n0\t1\t1\n1\t2\t3\n"
        )
        with pytest.raises(DataError, match="incomplete dense pair list"):
            read_network(str(path))

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "net.tsv"
        path.write_text("#sbanm v2 n=3\n")
        with pytest.raises(DataError, match=":1: malformed header"):
            read_network(str(path))

    def test_non_finite_weight_names_line(self, tmp_path):
        path = tmp_path / "net.tsv"
        path.write_text("#sbanm-net v1 n=2 K=1\n0\t1\tinf\n")
        with pytest.raises(DataError, match=":2: non-finite weight"):
            read_network(str(path))

    def test_reader_hands_over_its_layer_major_array(self, tmp_path, monkeypatch):
        path = tmp_path / "net.tsv"
        write_network(random_network(40, 3, seed=2), str(path))
        given = []

        def network(**kwargs):
            given.append(kwargs["weights"])
            return MultilayerNetwork(**kwargs)

        monkeypatch.setattr(sbanm_io, "MultilayerNetwork", network)
        net = read_network(str(path))
        assert net.weights is given[0] and net.weights.flags.f_contiguous

    def test_read_peak_memory_is_below_one_and_a_quarter_weights(self, tmp_path):
        path = tmp_path / "net.tsv"
        write_network(random_network(600, 3, seed=6), str(path))
        tracemalloc.start()
        try:
            net = read_network(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * net.weights.nbytes

    def test_write_peak_memory_is_below_3_mib(self, tmp_path):
        # The text kernel's temporaries, about 200 bytes per value, live for
        # one layer of one pair tile at a time.
        net = random_network(300, 3, seed=7)
        tracemalloc.start()
        try:
            write_network(net, str(tmp_path / "net.tsv"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_writer_ignores_the_memory_layout(self, tmp_path):
        net = random_network(40, 3, seed=3)
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_network(net, str(p1))
        net.weights = np.ascontiguousarray(net.weights)
        write_network(net, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_property(self, seed):
        net = random_network(5, 2, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            p1, p2 = os.path.join(tmp, "a.tsv"), os.path.join(tmp, "b.tsv")
            write_network(net, p1)
            write_network(read_network(p1), p2)
            with open(p1, "rb") as f1, open(p2, "rb") as f2:
                assert f1.read() == f2.read()


def float_texts(values):
    """The text the network and membership writers give each value."""
    x = np.asarray(values, dtype=float).reshape(1, -1)
    return table_text(list(float_text(x)), ",").decode("ascii").splitlines()


def dyadic_ties(rng, size):
    """Doubles whose exact decimal expansion has 18 significant digits, the
    last a 5, so rounding to 17 digits is a half-way tie; spread over the
    writer's fixed-notation range 1e-4 <= x < 1e14.  x = b / 2**j has the
    digits of b * 5**j, 18 of them ending in 5 for odd b in
    [1e17 / 5**j, 1e18 / 5**j), so x lies in [10**(17-j), 10**(18-j))."""
    j = rng.integers(4, 22, size)
    low, high = np.ceil(1e17 / 5.0**j), np.floor(1e18 / 5.0**j)
    b = np.floor(rng.uniform(low, high) / 2) * 2 + 1
    return np.ldexp(b, -j)


def around(v):
    """v and its two neighbouring doubles."""
    return [math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)]


# Signed zeros, the smallest subnormal, the smallest normal, a tie below the
# fixed-notation range, an in-range tie, 1e-14 (the double nearest 10**-14
# lies below it yet rounds to "1e-14" at 17 digits: a carry), and every
# power of ten from 1e-4 (the range's lower edge) through 1e14 (its upper
# edge), 1e16 and 1e17, with both neighbours and both signs.
EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.0**-25, 1e-14,
    12345678901234.0625,
    *(s * u for k in range(-4, 18) for u in around(float(f"1e{k}")) for s in (1, -1)),
]


class TestFloatText:
    """The writers' vectorised float text is format(v, ".17g") byte for byte."""

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_format(self, values):
        assert float_texts(values) == [format(v, ".17g") for v in values]

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_format_on_bit_patterns(self, patterns):
        values = [struct.unpack("<d", p.to_bytes(8, "little"))[0] for p in patterns]
        values = [v for v in values if math.isfinite(v)]
        assume(values)
        assert float_texts(values) == [format(v, ".17g") for v in values]

    def test_matches_format_on_seeded_sample(self):
        rng = np.random.default_rng(17)
        patterns = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
        magnitudes = 10.0 ** rng.uniform(-12, 17, 120_000) * rng.choice([-1.0, 1.0], 120_000)
        ties = dyadic_ties(rng, 40_000)
        values = np.concatenate([patterns[np.isfinite(patterns)], magnitudes, ties, -ties])
        assert values.size >= 200_000
        assert float_texts(values) == [format(v, ".17g") for v in values.tolist()]

    def test_ties_are_ties(self):
        ties = dyadic_ties(np.random.default_rng(3), 200).tolist() + [12345678901234.0625]
        for v in ties:
            digits = Decimal(v).as_tuple().digits  # the exact binary value
            assert len(digits) == 18 and digits[-1] == 5

    def test_matches_format_on_edge_values(self):
        assert Fraction(1e-14) < Fraction(1, 10**14) and format(1e-14, ".17g") == "1e-14"
        assert float_texts(EDGE_VALUES) == [format(v, ".17g") for v in EDGE_VALUES]


def read_by_line(path):
    """The line-by-line parser run on a whole network file."""
    with open(path, "r", encoding="utf-8") as fh:
        m = sbanm_io._NET_HEADER.match(fh.readline().rstrip("\n"))
        n, K = int(m.group(1)), int(m.group(2))
        return sbanm_io._read_pairs_by_line(path, fh, n, K)


def outcome(read, path):
    """(weight bytes, None) or (None, DataError message) of one parse."""
    try:
        return read(path).tobytes(), None
    except DataError as exc:
        return None, str(exc)


class TestNetworkFileErrors:
    """Every reader error, with the line it names."""

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(
                "#sbanm-net v1 n=3 K=1\n0\t1\t1\n\n0\t2\t2\n1\t2\t3\n",
                ":3: unexpected blank line",
                id="blank-line",
            ),
            pytest.param(
                "#sbanm-net v1 n=3 K=1\n0\t1\t1\n0\t2\t2\n1\t2\t3\n\n",
                ":5: unexpected blank line",
                id="blank-after-all-pairs",
            ),
            pytest.param(
                "#sbanm-net v1 n=3 K=1\n0\t1\t1\n \n0\t2\t2\n1\t2\t3\n",
                ":3: expected 3 fields",
                id="space-line",
            ),
            pytest.param(
                "#sbanm-net v1 n=3 K=1\n0\t1\t1\t2\n0\t2\t2\n1\t2\t3\n",
                ":2: expected 3 fields",
                id="field-count",
            ),
            pytest.param(
                "#sbanm-net v1 n=2 K=1\n0\t1\t1\n0\t1\t1\n",
                ":3: more pairs than n(n-1)/2",
                id="extra-pair",
            ),
            pytest.param(
                "#sbanm-net v1 n=3 K=1\n0\t2\t2\n0\t1\t1\n1\t2\t3\n",
                ":2: incomplete dense pair list (expected pair 0,1, got 0,2)",
                id="out-of-order",
            ),
            pytest.param(
                "#sbanm-net v1 n=3 K=1\n0\t1\t1\n1\t2\t3\n0\t2\t2\n",
                ":3: incomplete dense pair list (expected pair 0,2, got 1,2)",
                id="wrong-i",
            ),
            pytest.param(
                "#sbanm-net v1 n=3 K=1\n0\t1.0\t1\n0\t2\t2\n1\t2\t3\n",
                ":2: invalid literal for int() with base 10: '1.0'",
                id="float-index",
            ),
            pytest.param(
                "#sbanm-net v1 n=3 K=1\n0\t1\t1\n0\t2\tx\n1\t2\t3\n",
                ":3: could not convert string to float: 'x'",
                id="bad-float",
            ),
            pytest.param(
                "#sbanm-net v1 n=3 K=1\n0\t1\t1\n0\t2\tnan\n1\t2\t3\n",
                ":3: non-finite weight",
                id="nan",
            ),
            pytest.param(
                "#sbanm-net v1 n=3 K=1\n",
                ": incomplete dense pair list (0 of 3 pairs)",
                id="no-pairs",
            ),
            pytest.param(
                "#sbanm-net v1 n=1 K=1\n",
                ":1: invalid dimensions n=1, K=1",
                id="n=1",
            ),
            pytest.param(
                "#sbanm-net v1 n=3 K=0\n0\t1\n0\t2\n1\t2\n",
                ":1: invalid dimensions n=3, K=0",
                id="K=0",
            ),
        ],
    )
    def test_error_names_line(self, tmp_path, text, message):
        path = tmp_path / "net.tsv"
        path.write_text(text)
        with pytest.raises(DataError) as info:
            read_network(str(path))
        assert str(info.value) == f"{path}{message}"

    def test_large_declared_n_is_data_error(self, tmp_path):
        # n(n-1)/2 * K floats would be 65.5 TiB: nothing may be sized by
        # the header before the pairs are counted.
        path = tmp_path / "net.tsv"
        path.write_text("#sbanm-net v1 n=3000000 K=2\n0\t1\t1\t2\n")
        message = f"{path}: incomplete dense pair list (1 of 4499998500000 pairs)"
        with pytest.raises(DataError) as info:
            read_network(str(path))
        assert str(info.value) == message
        with pytest.raises(DataError) as info:
            read_by_line(str(path))
        assert str(info.value) == message

    def test_canonical_file_skips_line_parser(self, tmp_path, monkeypatch):
        net = random_network(12, 2, seed=4)
        path = tmp_path / "net.tsv"
        write_network(net, str(path))

        def fail(*args):
            raise AssertionError("line parser ran on a canonical file")

        monkeypatch.setattr(sbanm_io, "_read_pairs_by_line", fail)
        assert np.array_equal(read_network(str(path)).weights, net.weights)

    def test_last_line_without_line_end_skips_line_parser(self, tmp_path, monkeypatch):
        net = random_network(12, 2, seed=5)
        path = tmp_path / "net.tsv"
        write_network(net, str(path))
        path.write_bytes(path.read_bytes()[:-1])

        def fail(*args):
            raise AssertionError("line parser ran on a canonical file")

        monkeypatch.setattr(sbanm_io, "_read_pairs_by_line", fail)
        assert np.array_equal(read_network(str(path)).weights, net.weights)

    @pytest.mark.parametrize("end", [b"\r\n", b"\r"])
    def test_carriage_return_line_ends_are_read(self, tmp_path, end, monkeypatch):
        net = random_network(12, 2, seed=6)
        path = tmp_path / "net.tsv"
        write_network(net, str(path))
        path.write_bytes(path.read_bytes().replace(b"\n", end))
        line_parser, parsed = sbanm_io._read_pairs_by_line, []

        def by_line(*args):
            parsed.append(args[0])
            return line_parser(*args)

        monkeypatch.setattr(sbanm_io, "_read_pairs_by_line", by_line)
        assert np.array_equal(read_network(str(path)).weights, net.weights)
        # \r\n files take the tiled parser; a lone \r is left to the line parser.
        assert bool(parsed) == (end == b"\r")

    def test_line_count_across_chunks(self, tmp_path):
        # 4096 lines of 16 bytes fill the first 64 KiB chunk exactly.
        path = tmp_path / "net.tsv"
        line = b"0123456789abcde\n"

        def counted(body, n_pairs):
            path.write_bytes(b"#sbanm-net v1 n=2 K=1\n" + body)
            return sbanm_io._pair_lines_counted(str(path), n_pairs)

        body = line * 4100
        assert counted(body, 4100)
        assert not counted(body, 4099) and not counted(body, 4101)
        # The last line without its line end.
        assert counted(body[:-1], 4100) and not counted(body[:-1], 4099)
        # An empty line first in the body, first in the second chunk, last
        # in the first chunk, last in the body.
        assert not counted(b"\n" + body, 4101)
        assert not counted(line * 4096 + b"\n" + line * 4, 4101)
        assert not counted(line * 4095 + line[1:] + b"\n" + line * 4, 4101)
        assert not counted(body + b"\n", 4101)
        # \r\n line ends, one split over the two chunks.  A lone \r is left
        # to the line parser; an empty \r\n line is an empty line.
        crlf = body.replace(b"\n", b"\r\n")
        assert counted(crlf, 4100) and counted(crlf[:-2], 4100)
        assert counted(line * 4095 + line[:-1] + b"\r\n" + line * 4, 4100)
        assert not counted(crlf[:-1], 4100) and not counted(body[:-1] + b"\r", 4100)
        assert not counted(line * 9 + b"a\rb\n", 10)
        assert not counted(b"\r\n" + crlf, 4101) and not counted(crlf + b"\r\n", 4101)

    def test_spelling_only_python_takes_is_still_read(self, tmp_path):
        path = tmp_path / "net.tsv"
        path.write_text("#sbanm-net v1 n=2 K=1\n0\t1\t1_5\n")
        assert read_network(str(path)).weights.tolist() == [[15.0]]


def mutate(lines, rng, kind):
    """Apply one random edit of the given kind to the pair lines."""
    lines = list(lines)
    p = int(rng.integers(len(lines)))
    if kind == "drop":
        del lines[p]
    elif kind == "duplicate":
        lines.insert(p, lines[p])
    elif kind == "swap":
        q = int(rng.integers(len(lines)))
        lines[p], lines[q] = lines[q], lines[p]
    elif kind == "blank":
        lines.insert(int(rng.integers(len(lines) + 1)), "")
    elif kind == "drop-tab":
        fields = lines[p].split("\t")
        f = int(rng.integers(len(fields) - 1))
        lines[p] = "\t".join(fields[:f] + [fields[f] + fields[f + 1]] + fields[f + 2:])
    else:
        fields = lines[p].split("\t")
        fields[int(rng.integers(len(fields)))] = kind
        lines[p] = "\t".join(fields)
    return lines


class TestNetworkFileFastPath:
    @given(
        n=st.sampled_from([2, 3, 4, 7, 12, math.isqrt(2 * model.PAIR_TILE) + 2]),
        K=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(
            ["drop", "duplicate", "swap", "blank", "drop-tab", "nan", "1.0", "1_5", "x"]
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_line_parser(self, n, K, seed, kind):
        # The largest n has just over PAIR_TILE pairs: it spans two tiles.
        net = random_network(n, K, seed=seed)
        header, *lines = reference_network_text(net).splitlines()
        lines = mutate(lines, np.random.default_rng(seed), kind)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "net.tsv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join([header] + lines) + "\n")
            fast = outcome(lambda p: read_network(p).weights, path)
            assert fast == outcome(read_by_line, path)

    def test_round_trip_across_tiles_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        # About 2.5 tiles of pairs.
        net = random_network(math.isqrt(5 * model.PAIR_TILE), 3, seed=5)
        assert len(list(pair_tiles(net.n))) == 3
        # Magnitudes 1e-7..1e16 of both signs, with the edge values and
        # +-1e300, +-1e-300 scattered over all three tiles.
        net.weights *= 10.0 ** rng.uniform(-7, 16, net.weights.shape)
        special = EDGE_VALUES + [1e300, -1e300, 1e-300, -1e-300]
        spots = rng.choice(net.weights.size, 20 * len(special), replace=False)
        net.weights.flat[spots] = np.resize(special, spots.size)
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_network(net, str(p1))
        assert p1.read_bytes() == reference_network_text(net).encode("ascii")
        back = read_network(str(p1))
        assert np.array_equal(back.weights, net.weights)
        write_network(back, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_keeps_destination(self, tmp_path, monkeypatch):
        path = tmp_path / "net.tsv"
        path.write_bytes(b"old bytes\n")
        real_tiles = sbanm_io.pair_tiles

        def tiles_then_fail(m):
            tiles = real_tiles(m)
            yield next(tiles)
            raise RuntimeError("disk full")

        monkeypatch.setattr(sbanm_io, "pair_tiles", tiles_then_fail)
        with pytest.raises(RuntimeError, match="disk full"):
            write_network(random_network(130, 2, seed=6), str(path))
        assert path.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["net.tsv"]


class TestOutputFileMode:
    """Every writer leaves its file with the mode open(path, "w") gives it,
    0o666 less the umask, and no temp file behind."""

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_writers_apply_the_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            write_network(random_network(6, 2, seed=1), str(tmp_path / "net.tsv"))
            sbanm.write_memberships(str(tmp_path / "m.csv"), np.array([0, 1]), np.eye(2))
            sbanm.write_params(str(tmp_path / "p.json"), separable_params_2layer())
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert modes == {"net.tsv": mode, "m.csv": mode, "p.json": mode}


class TestUndecodableInput:
    """Every reader turns bytes that are not UTF-8 into a DataError naming
    the line."""

    @pytest.mark.parametrize(
        "reader, data, message",
        [
            pytest.param(
                read_network, b"#sbanm-net v1 n=2 K=1\n0\t1\t\xff\n",
                ":2: not valid UTF-8 (byte 0xff at column 5)", id="network-weight",
            ),
            pytest.param(
                read_network, b"#sbanm-net v1 n=2 K=1\xc3\n0\t1\t1\n",
                ":1: not valid UTF-8 (byte 0xc3 at column 22)", id="network-header",
            ),
            pytest.param(
                sbanm.read_memberships, b"node,block,tau_0\n0,0,1\n1,0,\xff1\n",
                ":3: not valid UTF-8 (byte 0xff at column 5)", id="memberships",
            ),
            pytest.param(
                sbanm.read_responses, b"subject,a:q\ns1,1\ns\xe92,0\n",
                ":3: not valid UTF-8 (byte 0xe9 at column 2)", id="responses",
            ),
            pytest.param(
                sbanm.read_params, b'{"Q": 1,\n "K": \x80}\n',
                ":2: not valid UTF-8 (byte 0x80 at column 7)", id="params",
            ),
        ],
    )
    def test_error_names_line(self, tmp_path, reader, data, message):
        path = tmp_path / "input"
        path.write_bytes(data)
        with pytest.raises(DataError) as info:
            reader(str(path))
        assert str(info.value) == f"{path}{message}"

    def test_error_deep_in_a_large_network_file(self, tmp_path):
        # Line 5000 lies past the first buffer the text reader decodes.
        path = tmp_path / "net.tsv"
        write_network(random_network(130, 2, seed=8), str(path))
        lines = path.read_bytes().split(b"\n")
        lines[4999] = lines[4999][:4] + b"\xff" + lines[4999][5:]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DataError, match=r":5000: not valid UTF-8 \(byte 0xff at column 5\)"):
            read_network(str(path))


class TestMembershipAndParamsFiles:
    def test_membership_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        tau = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
        sbanm.write_memberships(str(path), np.array([0, 1, 0]), tau)
        names, hard, tau2 = sbanm.read_memberships(str(path))
        assert names == ["0", "1", "2"]
        assert hard.tolist() == [0, 1, 0]
        assert np.array_equal(tau2, tau)

    def test_membership_text_matches_csv_reference(self, tmp_path):
        path = tmp_path / "m.csv"
        names = ["plain", "a,b", 'say "hi"', "two\nlines", " padded ", "é"]
        tau = np.array([
            [0.99999991142650002, 2.9524500000000044e-08, 0.0, -0.0],
            [1.0, 0.0, 5e-324, 1e-300],
            [0.25, 0.25, 0.25, 0.25],
            [1 / 3, 2 / 3, 1e-4, math.nextafter(1e-4, 0.0)],
            [0.1, 0.2, 0.30000000000000004, 0.4],
            [2.0**-25, 1e14, math.nextafter(1e14, 0.0), 123.5],
        ])
        hard = np.array([0, 0, 3, 1, 3, 1])
        sbanm.write_memberships(str(path), hard, tau, node_labels=names)
        assert path.read_bytes() == reference_memberships_text(names, hard, tau).encode("utf-8")
        got_names, got_hard, got_tau = sbanm.read_memberships(str(path))
        assert got_names == names and got_hard.tolist() == hard.tolist()
        assert got_tau.tobytes() == tau.tobytes()

    @pytest.mark.parametrize(
        "hard, names",
        [
            pytest.param([0, 1], None, id="short-hard"),
            pytest.param([0, 1, 0], ["a", "b"], id="short-names"),
            pytest.param([0, 1, 0], ["a", "b", "c", "d"], id="long-names"),
        ],
    )
    def test_membership_writer_checks_n(self, tmp_path, hard, names):
        path = tmp_path / "m.csv"
        with pytest.raises(DataError, match="hard labels, node labels and tau disagree on n"):
            sbanm.write_memberships(str(path), np.array(hard), np.eye(3)[[0, 1, 0]], names)
        assert not path.exists()

    def test_params_round_trip(self, tmp_path):
        params, _ = sbanm.experiment2_spec()
        path = tmp_path / "p.json"
        sbanm.write_params(str(path), params, elbo=-1.5, icl=-2.5, seed=7)
        got, extras = sbanm.read_params(str(path))
        assert got.Q == 4 and got.noise_block == 0
        assert np.array_equal(got.blocks[2].mu, params.blocks[2].mu)
        assert got.blocks[1].rho == params.blocks[1].rho
        assert extras == {"elbo": -1.5, "icl": -2.5, "seed": 7}

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(
                lambda doc: {k: v for k, v in doc.items() if k != "K"}, "missing key 'K'",
                id="missing-K",
            ),
            pytest.param(lambda doc: [1, 2], "expected a JSON object, got list", id="array"),
            pytest.param(
                lambda doc: {
                    **doc,
                    "blocks": [
                        doc["blocks"][0], {"mu": [1.0], "var": [1.0], "rho": 0.0},
                        *doc["blocks"][2:],
                    ],
                },
                "malformed value (block 1 has 1 layers, the noise law 3)", id="one-layer-block",
            ),
            pytest.param(
                lambda doc: {**doc, "noise": {**doc["noise"], "mu": ["a", 1.0, 2.0]}},
                "malformed value (noise.mu must be numbers, got ['a', 1.0, 2.0])", id="text-mu",
            ),
        ],
    )
    def test_params_errors_name_the_file(self, tmp_path, edit, message):
        params, _ = sbanm.experiment2_spec()
        path = tmp_path / "p.json"
        sbanm.write_params(str(path), params)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(DataError) as info:
            sbanm.read_params(str(path))
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "where, text, message",
        [
            pytest.param(("blocks", 1, "var", 0), "NaN", "non-finite number NaN", id="nan-var"),
            pytest.param(
                ("blocks", 2, "mu", 1), "-Infinity", "non-finite number -Infinity", id="inf-mu"
            ),
            pytest.param(("alpha", 3), "NaN", "non-finite number NaN", id="nan-alpha"),
            pytest.param(("noise", "var", 2), "NaN", "non-finite number NaN", id="nan-noise-var"),
            pytest.param(("noise", "mu", 0), "1e999", "non-finite number 1e999", id="overflow-mu"),
            pytest.param(
                ("blocks", 1, "mu", 0), "1" + "0" * 400,
                "malformed value (int too large to convert to float)", id="huge-int-mu",
            ),
            pytest.param(
                ("blocks", 1, "var", 2), "-1.0",
                "malformed value (block variances must be positive)",
                id="negative-var",
            ),
            pytest.param(
                ("blocks", 1, "rho"), "-0.9",
                "malformed value (correlation violates positive definiteness)",
                id="rho-not-pd",
            ),
            # Float fields take JSON numbers only: no strings, no booleans.
            pytest.param(
                ("psi",), '"0.75"', "malformed value (psi must be a number, got '0.75')",
                id="psi-text",
            ),
            pytest.param(
                ("psi",), "true", "malformed value (psi must be a number, got True)",
                id="psi-bool",
            ),
            pytest.param(
                ("psi",), "[0.75]", "malformed value (psi must be a number, got [0.75])",
                id="psi-list",
            ),
            pytest.param(
                ("blocks", 1, "rho"), '"0.4"',
                "malformed value (blocks[1].rho must be a number, got '0.4')", id="rho-text",
            ),
            pytest.param(
                ("blocks", 0, "rho"), "false",
                "malformed value (blocks[0].rho must be a number, got False)", id="rho-bool",
            ),
            pytest.param(
                ("blocks", 2, "mu"), '["12", "10", "8"]',
                "malformed value (blocks[2].mu must be numbers, got ['12', '10', '8'])",
                id="mu-text",
            ),
            pytest.param(
                ("blocks", 0, "var"), "[1.5, true, 1.5]",
                "malformed value (blocks[0].var must be numbers, got [1.5, True, 1.5])",
                id="var-bool",
            ),
            pytest.param(
                ("noise", "var"), '["2.0", "2.0", "2.0"]',
                "malformed value (noise.var must be numbers, got ['2.0', '2.0', '2.0'])",
                id="noise-var-text",
            ),
            pytest.param(
                ("noise", "mu"), "[[11.0], 10.0, 10.0]",
                "malformed value (noise.mu must be numbers, got [[11.0], 10.0, 10.0])",
                id="noise-mu-nested",
            ),
            pytest.param(
                ("alpha",), '["0.25", "0.25", "0.25", "0.25"]',
                "malformed value (alpha must be numbers, got ['0.25', '0.25', '0.25', '0.25'])",
                id="alpha-text",
            ),
            pytest.param(
                ("alpha",), '"0.25"', "malformed value (alpha must be numbers, got '0.25')",
                id="alpha-string",
            ),
        ],
    )
    def test_params_bad_numbers_name_the_file(self, tmp_path, where, text, message):
        params, _ = sbanm.experiment2_spec()
        path = tmp_path / "p.json"
        sbanm.write_params(str(path), params)
        doc = json.loads(path.read_text())
        *parents, last = where
        target = doc
        for key in parents:
            target = target[key]
        target[last] = "VALUE"
        path.write_text(json.dumps(doc).replace('"VALUE"', text))
        with pytest.raises(DataError) as info:
            sbanm.read_params(str(path))
        assert str(info.value) == f"{path}: {message}"

    def test_params_oversized_integer_names_the_file(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"Q": ' + "1" * 5000 + "}")
        with pytest.raises(DataError, match=re.escape(f"{path}: ")):
            sbanm.read_params(str(path))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            pytest.param("psi", 0.5, "psi must equal (Q-1)/Q", id="psi-half"),
            pytest.param("Q", 2, "Q=2 but 3 blocks", id="Q-2"),
            pytest.param("K", 3, "K does not match block dimensions", id="K-3"),
        ],
    )
    def test_params_q_and_psi_checked_against_blocks(self, tmp_path, key, value, message):
        path = tmp_path / "p.json"
        sbanm.write_params(str(path), separable_params_2layer())
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        with pytest.raises(DataError) as info:
            sbanm.read_params(str(path))
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            pytest.param("Q", "3", "an integer", id="Q-text"),
            pytest.param("Q", 3.7, "an integer", id="Q-fraction"),
            pytest.param("Q", 3.0, "an integer", id="Q-float"),
            pytest.param("Q", True, "an integer", id="Q-bool"),
            pytest.param("K", 2.2, "an integer", id="K-fraction"),
            pytest.param("K", None, "an integer", id="K-null"),
            pytest.param("noise_block", 0.0, "an integer or null", id="noise-block-float"),
            pytest.param("noise_block", False, "an integer or null", id="noise-block-bool"),
            pytest.param("noise_block", "0", "an integer or null", id="noise-block-text"),
        ],
    )
    def test_params_counts_are_json_integers(self, tmp_path, key, value, kind):
        path = tmp_path / "p.json"
        sbanm.write_params(str(path), separable_params_2layer())
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        with pytest.raises(DataError) as info:
            sbanm.read_params(str(path))
        assert str(info.value) == f"{path}: malformed value ({key} must be {kind}, got {value!r})"

    def test_params_floats_may_be_json_integers(self, tmp_path):
        path = tmp_path / "p.json"
        sbanm.write_params(str(path), separable_params_2layer())
        doc = json.loads(path.read_text())
        # Noise block 0 and the noise law: mu (-1, 0), var (1, 1), rho 0.
        for law in (doc["blocks"][0], doc["noise"]):
            law.update(mu=[-1, 0], var=[1, 1])
        doc["blocks"][0]["rho"] = 0
        path.write_text(json.dumps(doc))
        params, _ = sbanm.read_params(str(path))
        expected = separable_params_2layer()
        for law, want in zip([*params.blocks, params.noise], [*expected.blocks, expected.noise]):
            assert law.mu.dtype == law.var.dtype == float and type(law.rho) is float
            assert np.array_equal(law.mu, want.mu) and np.array_equal(law.var, want.var)

    def test_params_noise_block_may_be_null(self, tmp_path):
        path = tmp_path / "p.json"
        sbanm.write_params(str(path), separable_params_2layer())
        path.write_text(json.dumps({**json.loads(path.read_text()), "noise_block": None}))
        params, _ = sbanm.read_params(str(path))
        assert params.noise_block is None and params.Q == 3

    def test_response_csv_parsing(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "subject,anx:q1,anx:q2,mood:q1\n"
            "s1,1,0,NA\n"
            "s2,1,1,0\n"
            "s3,0,NA,0\n"
        )
        resp = sbanm.read_responses(str(path))
        assert resp.n_subjects == 3
        assert [name for name, _ in resp.layers] == ["anx", "mood"]
        assert resp.layers[0][1].shape == (3, 2)
        assert math.isnan(resp.layers[1][1][0, 0])

    def test_response_csv_bad_cell_names_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("subject,a:q,a:r\ns1,1,NA\ns2,0, 2 \n")
        with pytest.raises(DataError) as info:
            sbanm.read_responses(str(path))
        assert str(info.value) == f"{path}:3: cell '2' not in {{1,0,NA}}"
