import pytest

from hermseq.field import FieldContext


@pytest.fixture(scope="module")
def f4():
    return FieldContext(2, 1)


@pytest.fixture(scope="module")
def f9():
    return FieldContext(3, 1)
