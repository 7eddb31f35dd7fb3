"""What ``perf/child.py`` reads from :func:`repro.obs.bench.host_fingerprint`."""

from __future__ import annotations

from repro.obs.bench import host_fingerprint


def test_host_fingerprint_carries_the_numpy_build():
    host = host_fingerprint()
    assert set(host) == {"cpu_count", "python", "platform", "numpy", "blas"}
    for key in ("numpy", "blas"):
        assert isinstance(host[key], str) and host[key]
