"""The package loads its modules on first use, and its value classes keep
their value semantics without dataclasses.  What a fresh interpreter
imports is checked in a subprocess, since this one has loaded everything."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import uta
from uta import (ConversionReport, DeterminismReport, EnumerationBounds, EquivalenceVerdict,
                 FoolingSetHorizontal, FoolingSetVertical, LangPredicate, SizePair, leaf,
                 node)
from uta.docs import render_automaton

SRC = str(Path(uta.__file__).parents[1])


def _fresh(code: str, cwd=None) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    p = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    return p.stdout


def test_cli_import_leaves_dataclasses_out():
    out = _fresh("import sys, uta.cli; print('dataclasses' in sys.modules)")
    assert out == "False\n"


def test_size_command_loads_no_command_module(tmp_path):
    (tmp_path / "g.uta").write_text(render_automaton(uta.gen_thm41(2)[0]))
    out = _fresh("import sys\n"
                 "from uta.cli import cli_main\n"
                 "assert cli_main(['size', 'g.uta']) == 0\n"
                 "print(sorted(m for m in ('uta.analysis', 'uta.convert', 'uta.witnesses')"
                 " if m in sys.modules))", cwd=tmp_path)
    assert out.endswith("\n[]\n")


def test_every_public_name_resolves_to_its_module():
    out = _fresh(
        "import sys, uta\n"
        "assert [m for m in sys.modules if m.startswith('uta.')] == []\n"
        "for module, names in uta._EXPORTS.items():\n"
        "    mod = getattr(uta, module)\n"
        "    assert mod is sys.modules['uta.' + module]\n"
        "    for name in names.split():\n"
        "        assert getattr(uta, name) is getattr(mod, name), name\n"
        "public = sorted(n for n in dir(uta) if not n.startswith('_'))\n"
        "assert public == sorted(uta.__all__), public\n"
        "print(len(public))")
    assert out == f"{len(uta.__all__)}\n"
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        uta.nonesuch


def test_star_import_and_submodule_without_import():
    out = _fresh("import uta\n"
                 "print(uta.analysis.equiv_bounded.__module__)\n"
                 "ns = {}\n"
                 "exec('from uta import *', ns)\n"
                 "print(ns['Tree'] is uta.trees.Tree, ns['witnesses'] is uta.witnesses)")
    assert out == "uta.analysis\nTrue True\n"


def _records():
    t = node("a", leaf("b"))
    size = SizePair(1, 2)
    return [
        (t, "Tree('a(b)')"),
        (EnumerationBounds(max_depth=2), "EnumerationBounds(max_depth=2, max_width=5, max_count=200000)"),
        (size, "SizePair(vertical=1, horizontal=2)"),
        (DeterminismReport(False, "a", ("p", "q"), ("b",)),
         "DeterminismReport(ok=False, symbol='a', pair=('p', 'q'), witness=('b',))"),
        (EquivalenceVerdict(False, t, "bounded-enumeration"),
         "EquivalenceVerdict(equal=False, counterexample=Tree('a(b)'), method='bounded-enumeration')"),
        (ConversionReport("r", size, SizePair(vertical=2, horizontal=3), size),
         "ConversionReport(rule='r', input_size=SizePair(vertical=1, horizontal=2), "
         "output_size=SizePair(vertical=2, horizontal=3), bound=SizePair(vertical=1, horizontal=2))"),
        (LangPredicate(frozenset("a"), len, "d"),
         "LangPredicate(alphabet=frozenset({'a'}), decide=<built-in function len>, description='d')"),
    ]


RECORDS = _records()


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_frozen_records_keep_value_semantics(record, text):
    assert repr(record) == text
    again = pickle.loads(pickle.dumps(record))
    assert again == record and hash(again) == hash(record) and again is not record
    assert copy.deepcopy(record) == record
    assert record != tuple(getattr(record, n) for n in record.__slots__)
    name = record.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)


def test_record_construction_and_defaults():
    assert EnumerationBounds() == EnumerationBounds(4, 5, 200_000)
    assert SizePair(horizontal=2, vertical=1) == SizePair(1, 2)
    assert DeterminismReport(True) == DeterminismReport(ok=True, symbol=None, pair=None,
                                                        witness=None)
    assert SizePair(1, 2) != SizePair(2, 1) and SizePair(1, 2) != SizePair(1, 2.5)
    with pytest.raises(TypeError):
        SizePair(1)
    with pytest.raises(ValueError, match=r"invalid enumeration bounds EnumerationBounds\("
                                         r"max_depth=0, max_width=5, max_count=200000\)"):
        EnumerationBounds(0)


def test_fooling_sets_stay_mutable_and_unhashable():
    fv, fh = FoolingSetVertical([leaf("b")]), FoolingSetHorizontal([(leaf("b"),)], "a")
    assert fv.separators == {} and fh.separators == {}
    assert FoolingSetVertical([]).separators is not FoolingSetVertical([]).separators
    assert repr(fh) == "FoolingSetHorizontal(tuples=[(Tree('b'),)], symbol='a', separators={})"
    for fs in (fv, fh):
        with pytest.raises(TypeError):
            hash(fs)
        fs.separators = {(0, 1): "sep"}
        again = pickle.loads(pickle.dumps(fs))
        assert again == fs and again.separators == {(0, 1): "sep"}
    assert fv != FoolingSetVertical([leaf("b")])
