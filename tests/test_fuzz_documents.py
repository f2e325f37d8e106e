"""Malformed input must never crash: mutated documents, fooling sets and
tree strings either parse or raise ``UtaError``, and the command line
exits 0, 1 or 2 on them, never with a traceback.

The mutations start from rendered output of every document kind and
apply a few seeded edits: cut a span, insert a fragment of the format,
duplicate or drop a line.  The argument vectors of every command are
mutated too: an argument dropped, duplicated with its neighbour, swapped
with another, or replaced by a bad value or a missing file.  Every number
that can reach an argument is at most 3, so no example starts exponential
work.  The settings are fixed (derandomized, bounded examples, no
deadline) so the run is reproducible and takes a few seconds.
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


# Placeholders in braces name files that ``workdir_files`` writes afresh
# for every example, so no example can change what the next one reads.
COMMANDS = [
    ["run", "{family}", "--tree", "a(b,b,1)"],
    ["convert", "{guess}", "--to", "dtadfa", "--out", "{out}"],
    ["convert", "{family}", "--to", "sdta", "--force-general", "--out", "{out}"],
    ["size", "{family}"],
    ["equiv", "{family}", "{strong}", "--depth", "2", "--width", "2", "--count", "3"],
    ["check-det", "{guess}"],
    ["prune", "{family}", "--out", "{out}"],
    ["witness", "lemma34", "--k", "2,3", "--out", "{out}", "--fooling-vertical", "{fv_out}",
     "--fooling-horizontal", "{fh_out}"],
    ["witness", "thm41", "--n", "2", "--out", "{out}"],
    ["witness", "marked-union", "--m", "3", "--out", "{out}"],
    ["certify", "vertical", "lemma34:2,3", "--fooling-set", "{fv}"],
    ["certify", "horizontal", "{family}", "--fooling-set", "{fh}"],
    ["canon", "{strong}", "--out", "{out}"],
]
BAD_VALUES = ["{missing}", "{dir}", "{garbage}", "{nodir_out}", "{family}", "{strong}", "{fv}",
              "", "-", "--", "--help", "--out", "--k", "--n", "--to", "--tree", "x", "0", "-1",
              "1", "3", "2,3", "2,2", "3,2", "1,2", "a(", "a(b,b,1)", "sdta", "dtadfa",
              "vertical", "horizontal", "lemma34:", "lemma34:3", "thm41:x", "thm41:2",
              "marked-union", "size"]


@st.composite
def _mutated_argv(draw):
    argv = list(draw(st.sampled_from(COMMANDS)))
    for _ in range(draw(st.integers(1, 3))):
        if not argv:
            break
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "value"]))
        i = draw(st.integers(0, len(argv) - 1))
        if op == "drop":
            del argv[i]
        elif op == "duplicate":  # a flag with its value, or a value with the next flag
            argv[i:i] = argv[i:i + 2]
        elif op == "swap":
            j = draw(st.integers(0, len(argv) - 1))
            argv[i], argv[j] = argv[j], argv[i]
        else:
            argv[i] = draw(st.sampled_from(BAD_VALUES))
    return argv


@pytest.fixture(scope="module")
def workdir_files(workdir):
    family, pred = gen_lemma34((2, 3))
    texts = {
        "family": render_automaton(family),
        "strong": render_automaton(dtadfa_to_sdta(family)[0]),
        "guess": render_automaton(gen_thm41(2)[0]),
        "fv": FOOLING[0],
        "fh": FOOLING[1],
        "garbage": "kind: sdta\nalphabet: a\nstates:\n",
    }
    paths = {name: workdir / f"argv-{name}.txt" for name in texts}
    paths.update(missing=workdir / "argv-missing.uta", dir=workdir,
                 nodir_out=workdir / "no-such-dir" / "out.uta")
    paths.update((name, workdir / f"argv-{name}.txt") for name in ("out", "fv_out", "fh_out"))

    def refresh():
        for name, text in texts.items():
            paths[name].write_text(text)
        return {name: str(path) for name, path in paths.items()}

    return refresh


@FUZZ
@given(_mutated_argv())
def test_mutated_argv(workdir_files, argv):
    names = workdir_files()
    argv = [a.format(**names) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
