import sys

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "suite", deadline=None, max_examples=60, derandomize=True)
hypothesis.settings.load_profile("suite")


@pytest.fixture(autouse=True)
def _interpreter_limits():
    """Undo what a test's in-process cli.main does to the interpreter's limits."""
    recursion, digits = sys.getrecursionlimit(), sys.get_int_max_str_digits()
    yield
    sys.setrecursionlimit(recursion)
    sys.set_int_max_str_digits(digits)
