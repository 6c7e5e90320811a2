"""Tests for units, RNG derivation and formatting helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils import (
    Gbps,
    bytes_per_second,
    derive_seed,
    format_bytes,
    format_duration,
    format_rate,
    rng_for,
)


def test_gbps_conversion():
    assert Gbps(100) == pytest.approx(12.5e9)
    assert Gbps(8) == pytest.approx(1e9)


def test_bytes_per_second():
    assert bytes_per_second(100, 2) == 50
    with pytest.raises(ValueError):
        bytes_per_second(100, 0)


def test_format_bytes():
    assert format_bytes(512) == "512 B"
    assert format_bytes(93_000_000) == "88.7 MiB"
    assert format_bytes(70e9) == "65.2 GiB"
    assert format_bytes(-2048) == "-2.0 KiB"


def test_format_duration():
    assert format_duration(48 * 60) == "48m00s"
    assert format_duration(4.2) == "4.2s"
    assert format_duration(0.0113) == "11.3ms"
    assert format_duration(2e-6) == "2us"
    assert format_duration(3700) == "1h01m"
    assert format_duration(5e-10).endswith("ns")


def test_format_rate():
    assert format_rate(12.5e9) == "12.5 GB/s"
    assert format_rate(350e6) == "350.0 MB/s"
    assert format_rate(10) == "10 B/s"


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_rng_for_independent_streams():
    a = rng_for(0, "x").standard_normal(4)
    b = rng_for(0, "y").standard_normal(4)
    a2 = rng_for(0, "x").standard_normal(4)
    np.testing.assert_array_equal(a, a2)
    assert not np.array_equal(a, b)


@given(seed=st.integers(0, 2**31), tag=st.text(max_size=8))
def test_derive_seed_in_range(seed, tag):
    s = derive_seed(seed, tag)
    assert 0 <= s < 2**63


def test_public_package_api():
    import repro

    assert repro.__version__ == "1.0.0"
    assert "multicolor" in repro.ALLREDUCE_COMPILERS
