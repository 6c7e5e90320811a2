"""Unit tests for the storage tier's closed-form read cost."""

from repro.cluster import NFS_STORAGE


def test_random_requests_dominate_small_reads():
    """Image-sized NFS reads should be IOPS/latency-bound, not bandwidth."""
    img = 110_000.0
    t = NFS_STORAGE.read_time(img, 1)
    transfer_only = img / NFS_STORAGE.sequential_bandwidth
    assert t > 1.5 * transfer_only
