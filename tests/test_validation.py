"""``TreeAutomaton``'s validation, one loop over keyed blocks for all five
kinds, against ``oracles.validate_by_kind``, the validation with one branch
per form: every invalid variant must raise the same exception type with the
same message, and the first bad block in the order given decides."""

import re

import pytest

from uta import DFA, KINDS, NFA, NTA_NFA, SDTA, KindError, MooreDFA, TreeAutomaton
from uta.automata import DFA_KINDS
from uta.docs import parse_automaton, render_automaton

from oracles import validate_by_kind

HA = frozenset({"q", "r", "b"})  # the horizontal alphabet of the base automata


def _machine(kind, alphabet=HA, empty=False, output="q"):
    """The machine each block of ``kind`` takes: it accepts ``b`` (and the
    empty word if ``empty``), an SDTA's with ``output`` on its finals."""
    finals = {"s0", "s1"} if empty else {"s1"}
    args = ({"s0", "s1"}, alphabet, "s0", finals, [("s0", "b", "s1")])
    if kind == SDTA:
        return MooreDFA(*args, dict.fromkeys(finals, output))
    if kind in DFA_KINDS:
        return DFA(*args)
    return NFA(*args[:2], {"s0"}, *args[3:])


def _base(kind, blocks=None, **extra):
    """The constructor arguments of an automaton of ``kind``: exactly
    ``blocks``, by block key in the order given, or else two valid ones;
    ``extra`` adds further blocks (keys joined by spaces) after them."""
    if blocks is None:
        blocks = {("a",): _machine(kind)} if kind == SDTA else {
            ("q", "a"): _machine(kind), ("r", "a"): _machine(kind)}
    blocks = {**blocks, **{tuple(k.split()): m for k, m in extra.items()}}
    args = {"kind": kind, "alphabet": {"a", "b"}, "states": {"q", "r"}, "finals": {"q"},
            "leaf_symbols": {"b"}}
    if kind == SDTA:
        return {**args, "moore": {sym: m for (sym,), m in blocks.items()}}
    return {**args, "horizontal": blocks}


def _variants(kind):
    """Named invalid constructor arguments for ``kind``."""
    sdta = kind == SDTA
    a, b, c = [(sym,) if sdta else ("q", sym) for sym in "abc"]
    wrong_class = (DFA({"s0"}, HA, "s0", (), ()) if sdta else
                   NFA({"s0"}, HA, {"s0"}, (), ()) if kind in DFA_KINDS else None)
    out = {
        "undeclared symbol": _base(kind, {c: _machine(kind)}),
        "wrong class": _base(kind, {a: wrong_class}),
        "not a machine": _base(kind, {a: "a machine"}),
        "wrong alphabet": _base(kind, {a: _machine(kind, HA - {"r"})}),
        "empty word on a leaf symbol": _base(kind, {b: _machine(kind, empty=True)}),
        "bad block after good ones": _base(kind, **{" ".join(c): _machine(kind)}),
        "leaf symbol outside the alphabet": {**_base(kind), "leaf_symbols": {"b", "c"}},
        "leaf state named like a state": {**_base(kind), "leaf_symbols": {"a", "b"},
                                          "states": {"q", "r", "a"}},
        "undeclared final": {**_base(kind), "finals": {"z"}},
        # the first bad block in the order given decides
        "several bad blocks": _base(kind, {c: _machine(kind), a: None}),
        "several bad blocks, reversed": _base(kind, {a: None, c: _machine(kind)}),
    }
    if sdta:
        out["output not a state"] = _base(kind, {a: _machine(kind, output="z")})
        out["horizontal given"] = {**_base(kind), "horizontal": {("q", "a"): _machine(NTA_NFA)}}
    else:
        out["undeclared state"] = _base(kind, {("z", "a"): _machine(kind)})
        out["moore given"] = {**_base(kind), "moore": {"a": _machine(SDTA)}}
        out["key of one member"] = _base(kind, {("a",): _machine(kind)})
        out["bad block, then bad key"] = _base(kind, {a: None, ("z",): _machine(kind)})
        out["bad key, then bad block"] = _base(kind, {("q", "a", "b"): _machine(kind), a: None})
        # a string is no key, whether or not it unpacks into two
        out["key of two characters"] = _base(kind, {"qa": _machine(kind)})
        out["key of three characters"] = _base(kind, {"qab": _machine(kind)})
        # dict order puts r's bad block first; key order would put q's first
        out["bad blocks out of key order"] = _base(kind, {("r", "a"): _machine(kind, HA - {"r"}),
                                                          a: None})
    return out


def _outcome(make, args):
    try:
        make(**args)
    except Exception as e:  # the exception type and message are compared
        return type(e), str(e)
    return None


CASES = [(kind, name) for kind in KINDS for name in _variants(kind)]


@pytest.mark.parametrize("kind", KINDS)
def test_valid_base_is_accepted(kind):
    assert _outcome(TreeAutomaton, _base(kind)) is None
    assert _outcome(validate_by_kind, _base(kind)) is None


@pytest.mark.parametrize("kind, name", CASES, ids=[f"{k}: {n}" for k, n in CASES])
def test_same_error_as_one_branch_per_form(kind, name):
    args = _variants(kind)[name]
    want = _outcome(validate_by_kind, args)
    assert want is not None, "the variant must be invalid"
    assert _outcome(TreeAutomaton, args) == want


def test_messages_name_the_block():
    """A few messages spelled out, so the oracle cannot drift with the code."""
    got = {(kind, name): _outcome(TreeAutomaton, _variants(kind)[name])[1]
           for kind, name in [(SDTA, "output not a state"), (SDTA, "wrong class"),
                              ("nta-nfa", "undeclared symbol"), ("dta-dfa", "wrong class"),
                              ("dta-nfa", "wrong alphabet"), ("nta-dfa", "several bad blocks"),
                              ("nta-nfa", "key of two characters"),
                              ("dta-dfa", "key of three characters"),
                              ("nta-dfa", "key of one member")]}
    assert got == {
        (SDTA, "output not a state"): "outputs of machine for 'a' must be vertical states",
        (SDTA, "wrong class"): "machine for 'a' must be a MooreDFA",
        ("nta-nfa", "undeclared symbol"): "machine keyed by undeclared symbol 'c'",
        ("dta-dfa", "wrong class"): "kind dta-dfa requires DFA horizontal acceptors",
        ("dta-nfa", "wrong alphabet"):
            "machine for ('q','a') must read the horizontal alphabet",
        ("nta-dfa", "several bad blocks"): "machine keyed by undeclared symbol 'c'",
        ("nta-nfa", "key of two characters"):
            "machine keyed by 'qa', not by a (state, symbol) pair",
        ("dta-dfa", "key of three characters"):
            "machine keyed by 'qab', not by a (state, symbol) pair",
        ("nta-dfa", "key of one member"): "machine keyed by ('a',), not by a (state, symbol) pair",
    }


def test_blocks_are_keyed_in_key_order():
    """Every kind keeps its machines as one list of (block key, machine)
    pairs in key order, the keys the document format writes."""
    for kind in KINDS:
        extra = {"b": _machine(kind)} if kind == SDTA else {"r b": _machine(kind),
                                                             "q b": _machine(kind)}
        keys = [key for key, _ in TreeAutomaton(**_base(kind, **extra))._blocks]
        assert keys == ([("a",), ("b",)] if kind == SDTA else
                        [("q", "a"), ("q", "b"), ("r", "a"), ("r", "b")])


def test_a_string_key_is_refused_not_misread():
    """``{"qa": m}`` once validated as state q under symbol a, and its
    document parsed back to a different automaton; ``{"qab": m}`` raised a
    bare ValueError.  Both are refused by name; a pair key round-trips."""
    for key in ("qa", "qab"):
        with pytest.raises(KindError, match=re.escape(f"machine keyed by {key!r}")):
            TreeAutomaton(**_base(NTA_NFA, {key: _machine(NTA_NFA)}))
    a = TreeAutomaton(**_base(NTA_NFA, {("q", "a"): _machine(NTA_NFA)}))
    assert parse_automaton(render_automaton(a)) == a
