import pytest

from hermseq.field import FieldContext


@pytest.fixture(scope="module")
def f4():
    return FieldContext(2, 1)


@pytest.fixture(scope="module")
def f9():
    return FieldContext(3, 1)


# one field per layout class of the solver's digit lanes: characteristic 2
# at most 64 elements (GF(4), GF(16), GF(64)) and above, where logs need
# more than a byte (GF(256) in 8-bit and GF(1024) in 16-bit lanes); odd p with e = 1 in
# 4-bit (GF(9), GF(49)) and 8-bit (GF(121)) sub-lanes, four digits a lane
# (GF(81)), and 16-bit sub-lanes, whose digit sums overflow a byte (GF(251^2))
LAYOUT_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (7, 1), (11, 1),
                 (3, 2), (251, 1)]


@pytest.fixture(scope="session")
def layouts():
    return [FieldContext(p, e) for p, e in LAYOUT_FIELDS]


@pytest.fixture(scope="session", params=range(len(LAYOUT_FIELDS)),
                ids=[f"GF({p}^{2 * e})" for p, e in LAYOUT_FIELDS])
def layout(request, layouts):
    return layouts[request.param]
