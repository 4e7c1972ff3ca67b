import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """traced_peak(call, *args, **kwargs) is (call's result, the peak bytes
    tracemalloc traced while it ran)."""

    def run(call, *args, **kwargs):
        tracemalloc.start()
        try:
            result = call(*args, **kwargs)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
