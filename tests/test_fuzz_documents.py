"""Malformed input must never crash: mutated documents, fooling sets and
tree strings either parse or raise ``UtaError``, and the command line
exits 0, 1 or 2 on them, never with a traceback.

The mutations start from rendered output of every document kind and
apply a few seeded edits: cut a span, insert a fragment of the format,
duplicate or drop a line.  The settings are fixed (derandomized, bounded
examples, no deadline) so the run is reproducible and takes a few seconds.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uta import (DFA, NFA, MooreDFA, UtaError, dtadfa_to_sdta, gen_lemma34, gen_thm41,
                 nta_to_dtadfa, parse_tree)
from uta.cli import cli_main
from uta.docs import (parse_automaton, parse_fooling_set, render_automaton,
                      render_fooling_horizontal, render_fooling_vertical)
from uta.witnesses import (LEMMA34_ALPHABET, lemma34_horizontal_fooling,
                           lemma34_vertical_fooling)

FUZZ = settings(max_examples=120, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])

AUTOMATA = [
    render_automaton(gen_lemma34((2, 3))[0]),
    render_automaton(dtadfa_to_sdta(gen_lemma34((2, 3))[0])[0]),
    render_automaton(gen_thm41(2)[0]),
    render_automaton(nta_to_dtadfa(gen_thm41(2)[0])[0]),
    render_automaton(DFA(["s", "t"], ["a"], "s", ["t"], [("s", "a", "t")])),
    render_automaton(NFA(["s", "t"], ["a"], ["s"], ["t"], [("s", "a", "t"), ("s", "a", "s")])),
    render_automaton(MooreDFA(["s"], ["a"], "s", ["s"], [("s", "a", "s")], {"s": "1"})),
]
FOOLING = [
    render_fooling_vertical(lemma34_vertical_fooling((2, 3))),
    render_fooling_horizontal(lemma34_horizontal_fooling((2, 3))),
]
TREES = ["a(b,b,1)", "a(a(b,0),1)", "b", "a(x)"]

# Fragments of the format itself, so edits make near-miss documents.
FRAGMENTS = ["\n", ":", " ", "#", "\n: ", "horizontal ", "kind: ", "sep 0 1: ", "sep 1 0",
             "trans: ", "initial", "outputs: s=", "states:", "symbol: ", "tuple: ", "tree: ",
             "|", "(", ")", ",", "x", "a", "b", "1", "=", "\t", "q1", "dfa", "sdta"]


@st.composite
def _mutated(draw, texts):
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["cut", "insert", "duplicate-line", "drop-line"]))
        i = draw(st.integers(0, len(text)))
        if op == "cut":
            text = text[:i] + text[i + draw(st.integers(1, 12)):]
        elif op == "insert":
            text = text[:i] + draw(st.sampled_from(FRAGMENTS)) + text[i:]
        else:
            lines = text.splitlines(keepends=True) or [""]
            k = min(text[:i].count("\n"), len(lines) - 1)
            lines[k:k + 1] = [lines[k]] * 2 if op == "duplicate-line" else []
            text = "".join(lines)
    return text


def _parses_or_uta_error(parse, *args):
    try:
        parse(*args)
    except UtaError:
        pass


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli_main(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(_mutated(AUTOMATA))
def test_mutated_automata(workdir, text):
    _parses_or_uta_error(parse_automaton, text)
    doc = workdir / "doc.uta"
    doc.write_text(text)
    for argv in (["size", str(doc)], ["check-det", str(doc)],
                 ["run", str(doc), "--tree", "a(b,b,1)"]):
        assert _cli(argv) in (0, 1, 2), argv


@FUZZ
@given(_mutated(FOOLING))
def test_mutated_fooling_sets(workdir, text):
    _parses_or_uta_error(parse_fooling_set, text, LEMMA34_ALPHABET)
    doc = workdir / "fs.txt"
    doc.write_text(text)
    for direction in ("vertical", "horizontal"):
        argv = ["certify", direction, "lemma34:2,3", "--fooling-set", str(doc)]
        assert _cli(argv) in (0, 1, 2), argv


@FUZZ
@given(_mutated(TREES))
def test_mutated_tree_strings(workdir, text):
    _parses_or_uta_error(parse_tree, text, LEMMA34_ALPHABET)
    doc = workdir / "family.uta"
    if not doc.exists():
        doc.write_text(AUTOMATA[0])
    assert _cli(["run", str(doc), "--tree", text]) in (0, 1, 2)
