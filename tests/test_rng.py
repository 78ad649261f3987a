import numpy as np
import pytest

from sbanm.rng import derive_seed


@pytest.mark.parametrize(
    "seed, tags, want",
    [
        (1, ("network", 3), 16446392479599076402),
        (44, ("responses",), 12357268695962193106),
        (2**64 - 1, ("candidate", 0), 14482067202389201784),
    ],
)
def test_str_and_int_tags_name_their_recorded_streams(seed, tags, want):
    assert derive_seed(seed, *tags) == want


@pytest.mark.parametrize("kind", [np.int8, np.uint8, np.int32, np.int64, np.uint64])
def test_numpy_integer_tag_names_the_equal_int_stream(kind):
    assert derive_seed(1, "network", kind(3)) == derive_seed(1, "network", 3)
