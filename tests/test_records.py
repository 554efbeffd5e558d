"""Records: ``core.record`` builds the same frozen values as a plain
frozen slotted dataclass, and every such class in flo is declared with it."""

import dataclasses
import importlib
import inspect
import pkgutil
import sys

import pytest

import flo
from flo.core import memo, record
from flo.zset import CardMap


def _flo_classes():
    seen = []
    for info in pkgutil.walk_packages(flo.__path__, "flo."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                seen.append(obj)
    return seen


def _frozen_slotted(cls):
    return (
        dataclasses.is_dataclass(cls)
        and cls.__dataclass_params__.frozen
        and "__slots__" in cls.__dict__
    )


def _name(cls):
    return f"{cls.__module__}.{cls.__qualname__}"


# ``Plan`` compares by identity (``eq=False``), and ``record`` takes no options.
PLAIN = {"flo.graph.Plan"}
RECORDS = [cls for cls in _flo_classes() if _frozen_slotted(cls) and _name(cls) not in PLAIN]


def test_every_frozen_slotted_dataclass_is_a_record():
    names = set(map(_name, RECORDS))
    assert {"flo.core.StepResult", "flo.graph.Node", "flo.seq.SeqValue"} <= names
    plain = [
        _name(cls)
        for cls in _flo_classes()
        if _frozen_slotted(cls) and cls.__init__.__code__.co_filename != "<record>"
    ]
    assert sorted(plain) == sorted(PLAIN)


def _plain_twin(cls):
    """The same class declared with ``dataclass(frozen=True, slots=True)``:
    the methods and constants written in its body, and the same fields with
    the same options."""
    own_file = sys.modules[cls.__module__].__file__
    body = {}
    for name, value in cls.__dict__.items():
        code = getattr(getattr(value, "__func__", value), "__code__", None)
        if code is not None:
            if code.co_filename == own_file:
                body[name] = value
        elif not name.startswith("__") and not inspect.ismemberdescriptor(value):
            body[name] = value
    for f in dataclasses.fields(cls):
        body[f.name] = dataclasses.field(
            default=f.default, init=f.init, repr=f.repr, hash=f.hash, compare=f.compare
        )
    body["__annotations__"] = {f.name: f.type for f in dataclasses.fields(cls)}
    body["__module__"] = cls.__module__
    body["__qualname__"] = cls.__qualname__
    return dataclasses.dataclass(frozen=True, slots=True)(type(cls.__name__, (), body))


SAMPLES = {
    "bool": (True, False),
    "int": (3, 4),
    "str": ("any", "int"),
    "tuple": ((1, 2), (3,)),
    "frozenset": (frozenset({1, 2}), frozenset()),
    "dict": ({1: 2}, {"k": -1}),
    "CardMap": (CardMap({1: 2}), CardMap({"k": -1})),
}


# Fields whose values a repr or a check reads by shape.
SHAPED = {"cards": (((1, 2),), ())}


def _sample(f, k):
    if f.name in SHAPED:
        return SHAPED[f.name][k]
    return SAMPLES.get(getattr(f.type, "__name__", f.type), (("v", 0), ("w", 1)))[k]


def _state(obj):
    """Every field, with a memo read only as filled or not (``ElemType``'s
    ``__post_init__`` fills ``check`` with a fresh function each time), and
    the repr."""
    return (
        tuple(
            getattr(obj, f.name) if f.compare else getattr(obj, f.name) is None
            for f in dataclasses.fields(obj)
        ),
        repr(obj),
    )


def _hash(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return type(exc)


@pytest.mark.parametrize("cls", RECORDS, ids=_name)
def test_record_init_matches_the_dataclass_one(cls):
    twin = _plain_twin(cls)
    assert str(inspect.signature(cls)) == str(inspect.signature(twin))
    assert cls.__match_args__ == twin.__match_args__
    params = [f for f in dataclasses.fields(cls) if f.init]
    required = [f for f in params if f.default is dataclasses.MISSING]
    for k in (0, 1):
        args = [_sample(f, k) for f in params]
        kwargs = {f.name: _sample(f, k) for f in params}
        short = [_sample(f, k) for f in required]
        built = [cls(*args), cls(**kwargs), cls(*short)]
        plain = [twin(*args), twin(**kwargs), twin(*short)]
        for a, b in zip(built, plain):
            assert _state(a) == _state(b)
            assert _hash(a) == _hash(b)
        assert built[0] == built[1]


@pytest.mark.parametrize("cls", RECORDS, ids=_name)
def test_records_stay_frozen_and_memos_start_at_defaults(cls):
    params = [f for f in dataclasses.fields(cls) if f.init]
    obj = cls(*[_sample(f, 0) for f in params])
    for f in dataclasses.fields(cls):
        if not f.init and not hasattr(cls, "__post_init__"):
            assert getattr(obj, f.name) is None
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, _sample(f, 1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, f.name)


MEMO = memo()
PLAIN_FIELD = dataclasses.field()


def _options(f):
    return (f.default, f.init, f.repr, f.hash, f.compare)


def test_every_cache_field_is_declared_by_memo():
    # A field that leaves the constructor, equality, hashing or repr is a
    # cache, and a cache is declared one way, so none can enter any of them.
    memos = set()
    for cls in RECORDS:
        for f in dataclasses.fields(cls):
            if _options(f)[1:] != _options(PLAIN_FIELD)[1:]:
                assert _options(f) == _options(MEMO), f"{_name(cls)}.{f.name}"
                memos.add(f"{_name(cls)}.{f.name}")
    assert {"flo.graph.Node._fast", "flo.sets.SetValue._checked", "flo.core.ElemType.check"} <= memos


def test_record_runs_post_init_and_keeps_an_explicit_hash():
    @record
    class Checked:
        a: int
        b: tuple = ()
        seen: list = dataclasses.field(default=None, init=False, compare=False, repr=False)

        def __post_init__(self):
            if self.a < 0:
                raise ValueError("negative")

        def __hash__(self):
            return 7

    assert Checked(1) == Checked(1, ()) and hash(Checked(2)) == 7
    assert Checked(1).seen is None and repr(Checked(1, (2,))).endswith("Checked(a=1, b=(2,))")
    with pytest.raises(ValueError):
        Checked(-1)
    with pytest.raises(TypeError):
        Checked()
    with pytest.raises(TypeError):
        Checked(1, (), 3)


def test_record_rejects_fields_it_does_not_build():
    with pytest.raises(TypeError):

        @record
        class Listed:
            items: list = dataclasses.field(default_factory=list)
