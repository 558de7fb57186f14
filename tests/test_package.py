"""Package-wide behaviour: the immutable records, the module doctests,
README's library example, and what importing the CLI loads."""

import ast
import copy
import doctest
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import leavitt
from leavitt import (
    DirectedGraph,
    FGAbelianGroup,
    GroupElement,
    IntMatrix,
    IsoReason,
    IsoVerdict,
    K0Data,
    MatrixTypeVerdict,
    PisReport,
    SmithDecomposition,
)
from leavitt.intmat import Record

ONE = IntMatrix([[1]])

# (class, fields in order, repr); every record class of the package
RECORDS = [
    (
        FGAbelianGroup,
        {"invariant_factors": (2, 4), "free_rank": 1},
        "FGAbelianGroup(invariant_factors=(2, 4), free_rank=1)",
    ),
    (
        GroupElement,
        {"torsion": (1, 3), "free": (-5,)},
        "GroupElement(torsion=(1, 3), free=(-5,))",
    ),
    (
        DirectedGraph,
        {"vertices": ("a", "b"), "edges": (("a", "b", 1), ("b", "a", 2))},
        "DirectedGraph(vertices=('a', 'b'), edges=(('a', 'b', 1), ('b', 'a', 2)))",
    ),
    (
        PisReport,
        {
            "every_cycle_has_exit": True,
            "trivial_hereditary_saturated": False,
            "every_vertex_connects_to_cycle": True,
        },
        "PisReport(every_cycle_has_exit=True, trivial_hereditary_saturated=False, "
        "every_vertex_connects_to_cycle=True)",
    ),
    (
        SmithDecomposition,
        {"U": ONE, "D": IntMatrix([[6]]), "V": ONE, "diagonal": (6,)},
        "SmithDecomposition(U=IntMatrix([[1]]), D=IntMatrix([[6]]), V=IntMatrix([[1]]), "
        "diagonal=(6,))",
    ),
    (
        K0Data,
        {
            "group": FGAbelianGroup((), 1),
            "unit": GroupElement((), (1,)),
            "unit_order": leavitt.INFINITE,
            "coordinate_map": ((1,),),
            "generators": 1,
        },
        "K0Data(group=FGAbelianGroup(invariant_factors=(), free_rank=1), "
        "unit=GroupElement(torsion=(), free=(1,)), unit_order=INFINITE, "
        "coordinate_map=((1,),), generators=1)",
    ),
    (
        MatrixTypeVerdict,
        {"regime": "finite", "unit_order": 4},
        "MatrixTypeVerdict(regime='finite', unit_order=4)",
    ),
    (
        IsoVerdict,
        {"reason": IsoReason.UNIT_ORBIT_MATCH, "witness": "w"},
        "IsoVerdict(reason=<IsoReason.UNIT_ORBIT_MATCH: 'unit_orbit_match'>, witness='w')",
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
class TestRecord:
    def test_equal_fields_give_equal_records(self, cls, fields, text):
        a, b = cls(*fields.values()), cls(**fields)
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_unequal_to_other_classes_and_tuples(self, cls, fields, text):
        twin_cls = type("Twin", (Record,), {"__slots__": cls.__slots__, "__init__": cls.__init__})
        record, twin = cls(**fields), twin_cls(**fields)
        values = tuple(fields.values())
        assert record != twin and twin != record
        assert record != values and values != record

    def test_immutable(self, cls, fields, text):
        record = cls(**fields)
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == cls(**fields)

    def test_repr(self, cls, fields, text):
        assert repr(cls(**fields)) == text

    def test_pickle_and_copy_round_trip(self, cls, fields, text):
        record = cls(**fields)
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(twin) is cls
            assert twin == record and hash(twin) == hash(record)
            assert repr(twin) == text


# the records whose constructor is Record's own, built from __slots__
SLOT_BUILT = [
    (cls, fields)
    for cls, fields, _ in RECORDS
    if cls in (PisReport, SmithDecomposition, K0Data, MatrixTypeVerdict)
]


@pytest.mark.parametrize("cls, fields", SLOT_BUILT, ids=[cls.__name__ for cls, _ in SLOT_BUILT])
def test_slot_built_records_reject_bad_fields(cls, fields):
    assert cls.__init__ is Record.__init__
    values = list(fields.values())
    bad_calls = [
        (values[:-1], {}),  # missing
        ((), {name: fields[name] for name in list(fields)[:-1]}),  # missing, by name
        (values, {"extra": 1}),  # unknown
        (values[:1], fields),  # repeated
        (values + values[:1], {}),  # extra
    ]
    for args, named in bad_calls:
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\(\) takes the fields"):
            cls(*args, **named)


def test_record_defaults():
    assert FGAbelianGroup() == FGAbelianGroup((), 0)
    assert GroupElement((1,)) == GroupElement((1,), ())
    assert IsoVerdict(IsoReason.GROUP_MISMATCH).witness is None


def test_infinite_survives_pickle_and_copy():
    inf = leavitt.INFINITE
    assert pickle.loads(pickle.dumps(inf)) is inf
    assert copy.copy(inf) is inf and copy.deepcopy(inf) is inf


MODULES = sorted(
    f"leavitt.{info.name}" for info in pkgutil.iter_modules(leavitt.__path__)
    if info.name != "__main__"  # importing it runs the CLI
)


@pytest.mark.parametrize("name", ["leavitt"] + MODULES)
def test_doctests(name):
    failures, _ = doctest.testmod(importlib.import_module(name))
    assert failures == 0


def test_readme_library_block():
    # run the python block under README's "## Library" statement by
    # statement and check the values its comments state
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## Library", 1)[1]
    source = block.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    k0 = namespace["k0"]
    assert (k0.group.invariant_factors, k0.group.free_rank, k0.unit_order) == ((4,), 0, 4)
    assert values == [True, False]
    assert leavitt.k0_of_graph(namespace["bigger"]).unit_order == 2  # 2*[1] in Z/4


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """They cost every ``python -m leavitt`` call about 20 ms; -S keeps any
    site hook's own imports out of the check."""
    src = str(Path(leavitt.__file__).resolve().parents[1])
    code = (
        "import sys, leavitt.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _cache_uses(tree: ast.AST) -> int:
    """How many times the module's code names lru_cache or cache."""
    return sum(
        isinstance(node, ast.Name) and node.id in ("lru_cache", "cache")
        or isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
        for node in ast.walk(tree)
    )


def _caches(module) -> dict:
    """The functools caches that the module defines at its top level."""
    return {
        attr: value for attr, value in vars(module).items()
        if hasattr(value, "cache_parameters") and value.__module__ == module.__name__
    }


@pytest.mark.parametrize("name", MODULES)
def test_every_cache_is_bounded(name):
    # an unbounded functools cache keeps every argument and result for the
    # life of the process, as abelian._table_for once did; each cache must
    # wrap a module-level function, where this finds it, and name a finite
    # maxsize
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    caches = _caches(module)
    assert len(caches) == _cache_uses(tree)
    for attr, cache in caches.items():
        assert isinstance(cache.cache_parameters()["maxsize"], int), attr


def test_the_caches_are_found():
    found = [f"{name}.{attr}" for name in MODULES for attr in _caches(importlib.import_module(name))]
    assert found == ["leavitt.abelian._table_for", "leavitt.ktheory._contracted_cokernel"]
