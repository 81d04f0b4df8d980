import contextlib
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import ggsver as gv

# Hypothesis's pytest plugin imports libcst to print a patch for each failing
# example; under -W error, libcst's DeprecationWarning at import would end the
# session with INTERNALERROR in place of the counterexample, so it is imported
# here first with that warning ignored
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    with contextlib.suppress(ImportError):
        import libcst  # noqa: F401

settings.register_profile(
    "det",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")


def pytest_terminal_summary(terminalreporter):
    # pyproject's pythonpath puts this checkout's src ahead of PYTHONPATH, so
    # the suite tests the checkout it runs from; the summary says which, as
    # a header would not under -q
    terminalreporter.write_line(f"ggsver: {Path(gv.__file__).parent}")


def _session(spec, depth):
    """A session whose G's layers are grown from G', as every check grows
    them, so that G's representatives, and the generators of what is read
    off them, do not depend on which test touches the session first."""
    session = gv.build(spec, depth)
    session.derived()
    return session


@pytest.fixture(scope="session")
def gs_spec():
    return gv.validate(3, [(1, 2)])


@pytest.fixture(scope="session")
def const_spec():
    return gv.validate(3, [(1, 1)])


@pytest.fixture(scope="session")
def r2_spec():
    return gv.validate(3, [(1, 0), (0, 1)])


@pytest.fixture(scope="session")
def sym5_spec():
    return gv.validate(5, [(1, 1, 1, 1), (1, 0, 0, 1)])


@pytest.fixture(scope="session")
def gs3(gs_spec):
    return _session(gs_spec, 3)


@pytest.fixture(scope="session")
def gs4(gs_spec):
    return _session(gs_spec, 4)


@pytest.fixture(scope="session")
def r2_4(r2_spec):
    return _session(r2_spec, 4)
