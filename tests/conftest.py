import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test(request):
    """Fail any test that leaves a Python thread it started still alive."""
    before = set(threading.enumerate())
    yield
    left = [thread.name for thread in threading.enumerate() if thread not in before]
    assert not left, f"{request.node.nodeid} left threads alive: {left}"
