"""Value semantics of the seven record types: repr, equality, hash, field
order, construction, immutability, pickling and copying.  The expected
reprs and field orders are those the types had as frozen dataclasses, or
for TailAsymptote as a NamedTuple."""

import copy
import inspect
import pickle

import pytest

from tsqueue import distribution
from tsqueue.cli import _Figure, _Record
from tsqueue.distribution import QosReport, QueueModel, TailAsymptote
from tsqueue.fitting import CorrespondenceRecord, FitReport
from tsqueue.solver import SolverResult

# (type, constructor arguments, all field values, repr, field order); the
# constructor takes the compared fields, and the arguments are those.
CASES = {
    "QueueModel": (
        QueueModel, (0.75, 1.0), (0.75, 1.0, 4.0, 4.0),
        "QueueModel(q=0.75, beta=1.0)",
        ("q", "beta", "s", "c"),
    ),
    "QosReport": (
        QosReport, (1.5, None, 0.5, 0.5, 3.0, 0.25, ((0, 0.5), (10, 0.01))), None,
        "QosReport(mean=1.5, variance=None, utilization=0.5, p0=0.5, tail_exponent=3.0, "
        "tail_coefficient=0.25, tail_samples=((0, 0.5), (10, 0.01)))",
        ("mean", "variance", "utilization", "p0", "tail_exponent", "tail_coefficient",
         "tail_samples"),
    ),
    "TailAsymptote": (
        TailAsymptote, (0.25, 3.0, 0.0025), None,
        "TailAsymptote(coefficient=0.25, exponent=3.0, value=0.0025)",
        ("coefficient", "exponent", "value"),
    ),
    "SolverResult": (
        SolverResult, (0.5, 3, 2.5e-16, False), None,
        "SolverResult(beta=0.5, iterations=3, residual=2.5e-16, fallback_used=False)",
        ("beta", "iterations", "residual", "fallback_used"),
    ),
    "CorrespondenceRecord": (
        CorrespondenceRecord, (2.0, 0.5, 0.75, 0.6), None,
        "CorrespondenceRecord(mean=2.0, beta=0.5, rho=0.75, q=0.6)",
        ("mean", "beta", "rho", "q"),
    ),
    "FitReport": (
        FitReport, ("II", (1.0, 0.5, 0.25, 2.0), 0.01, 0.99, 12, True), None,
        "FitReport(model_kind='II', params=(1.0, 0.5, 0.25, 2.0), rmse=0.01, r_squared=0.99, "
        "iterations=12, converged=True)",
        ("model_kind", "params", "rmse", "r_squared", "iterations", "converged"),
    ),
    "_Record": (
        _Record, ({"value": 1.0}, {"value": None}, ["1"]), None,
        "_Record(fields={'value': 1.0}, json={'value': None}, table=['1'])",
        ("fields", "json", "table"),
    ),
}


@pytest.fixture(params=CASES.values(), ids=CASES.keys())
def case(request):
    cls, args, values, text, fields = request.param
    return cls, args, args if values is None else values, text, fields


def _values(record):
    return tuple(getattr(record, name) for name in record._fields)


def test_repr_and_field_order(case):
    cls, args, values, text, fields = case
    record = cls(*args)
    assert repr(record) == text
    assert cls._fields == fields
    assert _values(record) == values
    assert record._asdict() == dict(zip(fields, values))
    assert list(record._asdict()) == list(fields)
    assert cls.__match_args__ == fields[:len(args)]


def test_positional_and_keyword_construction_agree(case):
    cls, args, values, text, fields = case
    by_name = cls(**dict(zip(fields, args)))
    assert by_name == cls(*args)
    assert _values(by_name) == values


def test_equality_and_hash(case):
    cls, args, values, text, fields = case
    record = cls(*args)
    assert record == cls(*args) and not record != cls(*args)
    if cls is not _Record:  # a _Record holds a dict, which is unhashable
        assert hash(record) == hash(args) == hash(cls(*args))
    # Equal only to a record of the same class: not to a tuple of the same
    # values, nor to another class with the same fields and values.
    assert record != args and args != record
    other = type("Other", (cls,), {"__slots__": ()})(*args)
    assert record != other and other != record


def test_two_classes_with_equal_values_differ():
    values = (0.5, 3, 2.5e-16, False)
    assert SolverResult(*values) != CorrespondenceRecord(*values)


def test_a_changed_field_breaks_equality(case):
    cls, args, values, text, fields = case
    # The first field scaled, or emptied; 0.875 keeps QueueModel's q in (1/2, 1).
    changed = (args[0] * 0.875 if isinstance(args[0], float) else type(args[0])(),) + args[1:]
    assert cls(*changed) != cls(*args)


def test_fields_and_new_names_are_read_only(case):
    cls, args, values, text, fields = case
    record = cls(*args)
    # No name reaches the storage either: not a slot's (QueueModel's cache
    # slot among them), nor a field's with a trailing underscore.
    names = (*fields, *cls.__slots__, *(name + "_" for name in fields), "extra")
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _values(record) == values


def test_not_a_tuple(case):
    cls, args, values, text, fields = case
    record = cls(*args)
    with pytest.raises(TypeError):
        tuple(record)
    with pytest.raises(TypeError):
        record[0]


CLONES = {
    **{f"pickle-{p}": lambda r, p=p: pickle.loads(pickle.dumps(r, p))
       for p in range(pickle.HIGHEST_PROTOCOL + 1)},
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
def test_pickle_and_copy_round_trips(case, clone):
    cls, args, values, text, fields = case
    record = cls(*args)
    twin = clone(record)
    assert type(twin) is cls
    assert twin == record and repr(twin) == text and _values(twin) == values


def test_record_defaults():
    record = _Record({"a": 1})
    assert (record.fields, record.json, record.table) == ({"a": 1}, None, None)
    assert repr(record) == "_Record(fields={'a': 1}, json=None, table=None)"


@pytest.mark.parametrize("cls", [case[0] for case in CASES.values() if case[0] is not QueueModel]
                         + [_Figure])
def test_generated_constructor_signature(cls):
    defaults = cls.__dict__.get("_defaults", ())
    parameters = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in parameters] == list(cls._fields)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters)
    required = len(cls._fields) - len(defaults)
    assert all(p.default is p.empty for p in parameters[:required])
    assert tuple(p.default for p in parameters[required:]) == defaults


def test_queue_model_log_norm_is_cached_and_not_compared(monkeypatch):
    sums = []

    def counted(s, a):
        sums.append((s, a))
        return 0.5

    monkeypatch.setattr(distribution, "_log_scaled", counted)
    read, unread = QueueModel(0.75, 1.0), QueueModel(0.75, 1.0)
    assert read._log_norm == 0.5 and read._log_norm == 0.5
    assert sums == [(4.0, 4.0)]  # summed once, on the first read
    assert read == unread and hash(read) == hash(unread) and repr(read) == repr(unread)
    assert "_log_norm" not in read._fields
    with pytest.raises(AttributeError):
        read._log_norm = 1.0
    assert pickle.loads(pickle.dumps(read)) == read
