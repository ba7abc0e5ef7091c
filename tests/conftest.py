import pytest

from factgap.gateway import HttpBackend

from loopback_server import LoopbackServer


@pytest.fixture
def loopback():
    server = LoopbackServer()
    yield server
    server.close()


@pytest.fixture
def http_backend(loopback):
    """Builds HttpBackends on ``loopback`` (``path`` is appended to its
    URL) and closes their idle connections when the test ends."""
    made = []

    def make(path="", **kwargs):
        backend = HttpBackend(loopback.url + path, **kwargs)
        made.append(backend)
        return backend

    yield make
    for backend in made:
        backend.close()
