import pytest

from hermseq.field import FieldContext


@pytest.fixture(scope="module")
def f4():
    return FieldContext(2, 1)


@pytest.fixture(scope="module")
def f9():
    return FieldContext(3, 1)


# one field per layout class of the solver's digit lanes: characteristic 2
# in one byte (GF(4), GF(16), GF(64)) and above, where logs need more than
# a byte (GF(256) in 8-bit and GF(1024) in 16-bit lanes); odd p with e = 1
# in one byte of two 4-bit sub-lanes (GF(9), GF(25), GF(49)), whose guard
# offsets 2^3 - p are 5, 3 and 1, and in 8-bit sub-lanes (GF(121)); four
# digits a lane (GF(81)), ten in 64-bit lanes (GF(3^10)), and 16-bit
# sub-lanes, whose digit sums overflow a byte (GF(251^2))
LAYOUT_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (5, 1), (7, 1), (11, 1),
                 (3, 2), (3, 5), (251, 1)]


@pytest.fixture(scope="session")
def layouts():
    return [FieldContext(p, e) for p, e in LAYOUT_FIELDS]


@pytest.fixture(scope="session", params=range(len(LAYOUT_FIELDS)),
                ids=[f"GF({p}^{2 * e})" for p, e in LAYOUT_FIELDS])
def layout(request, layouts):
    return layouts[request.param]
