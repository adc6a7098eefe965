"""coverlab's value types, the NamedTuples and `Graph`, its one
hand-written value class: construction by position and by keyword with
defaults, equality and hash by value, a `Name(field=value, ...)` repr,
frozen fields and pickling."""

import pickle

import pytest

from coverlab import generators as gen
from coverlab.bounds import BoundValue, Status, SymbolicConstant
from coverlab.constructive import ConstructionTrace
from coverlab.errors import IndexOutOfRange
from coverlab.graph import Graph, PieceKind
from coverlab.iso import Embedding
from coverlab.solvers import INVARIANT_SPECS, PieceCertificate, invariant_value

CERT = PieceCertificate(PieceKind.PATH, "cover", ((0, 1, 2),), True, 1)
NINE = BoundValue(9, Status.TABLE_EXACT)

# (type, every field in order with its default where it has one,
#  how many fields have no default, fields changed to other values)
VALUES = [
    (PieceCertificate, {"kind": PieceKind.PATH, "mode": "cover", "pieces": ((0, 1, 2),),
                        "optimal": True, "lower_bound": 1}, 5, {"optimal": False}),
    (BoundValue, {"value": 9, "status": Status.TABLE_EXACT, "note": ""},
     2, {"note": "table"}),
    (SymbolicConstant, {"constant_term": BoundValue(0, Status.EXACT),
                        "coefficient": NINE}, 2, {"coefficient": BoundValue(8, Status.EXACT)}),
    (Embedding, {"map": (2, 0, 1)}, 1, {"map": (0, 1, 2)}),
    (ConstructionTrace, {"algorithm": "sp_cover", "n": 4, "intermediate": {"depth": 2},
                         "result": CERT, "claimed_bound": NINE}, 5, {"n": 5}),
    (Graph, {"order": 3, "adj": (2, 5, 2), "label": None}, 2, {"label": "P_3"}),
]


@pytest.mark.parametrize("cls, fields, required, changed", VALUES,
                         ids=[row[0].__name__ for row in VALUES])
def test_value_type(cls, fields, required, changed):
    by_keyword = cls(**dict(list(fields.items())[:required]))
    by_position = cls(*fields.values())
    for name, value in fields.items():
        assert getattr(by_keyword, name) == getattr(by_position, name) == value
    other = cls(*{**fields, **changed}.values())
    assert [getattr(other, name) for name in changed] == list(changed.values())
    assert by_keyword == by_position and by_keyword != other
    if any(isinstance(v, dict) for v in fields.values()):
        with pytest.raises(TypeError):  # a dict field is unhashable
            hash(by_keyword)
    else:
        assert hash(by_keyword) == hash(by_position)
        assert len({by_keyword, by_position, other}) == 2
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, fields[name])
    copy = pickle.loads(pickle.dumps(other))
    assert type(copy) is cls and copy == other
    inner = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(by_position) == f"{cls.__name__}({inner})"


def test_named_tuple_types_are_tuples():
    assert len(CERT) == 5
    assert CERT == (PieceKind.PATH, "cover", ((0, 1, 2),), True, 1)
    assert CERT.value == 1


def test_record_field_cannot_be_deleted():
    g = gen.path(3)
    with pytest.raises(AttributeError, match="cannot delete field 'order'"):
        del g.order
    assert g.order == 3


def test_graph_checks_adjacency_length():
    with pytest.raises(IndexOutOfRange):
        Graph(2, (0,))


def test_graph_caches_rings_and_components():
    g = gen.path(5)
    assert g.rings is g.rings and g.components is g.components
    # the caches are no fields: they change neither equality nor the copy
    assert g == gen.path(5) and hash(g) == hash(gen.path(5))
    assert pickle.loads(pickle.dumps(g)) == g


def test_graph_holding_shared_results_is_the_same_value():
    # a graph keeps what its solves share (maximal paths and stars, the
    # longest path, the largest star) next to its cached properties
    g, fresh = gen.cycle(7), gen.cycle(7)
    certs = {name: invariant_value(g, name) for name in INVARIANT_SPECS}
    assert any(key.startswith("solvers.") for key in g.__dict__)
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    copy = pickle.loads(pickle.dumps(g))
    assert type(copy) is Graph and copy == fresh and repr(copy) == repr(fresh)
    assert {name: invariant_value(copy, name) for name in INVARIANT_SPECS} == certs
