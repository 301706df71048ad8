"""Named RNG sub-streams: each stream of a run is keyed by its own name."""

from dataclasses import fields

import numpy as np
import pytest

from elfopt.seeding import RngStreams, rng_streams, substream


@pytest.mark.parametrize("seed", [0, 7])
def test_each_stream_draws_what_the_substream_of_its_name_draws(seed):
    # The names are the streams' keys: renaming a field changes every run.
    names = ["data", "theta_init", "train_order", "val_order", "line_search", "cv"]
    assert [field.name for field in fields(RngStreams)] == names
    streams = rng_streams(seed)
    for name in names:
        np.testing.assert_array_equal(getattr(streams, name).random(8),
                                      substream(seed, name).random(8))
