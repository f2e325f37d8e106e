"""Golden run of the library on seeded random automata.

Each family of ``randgen`` goes through every conversion in both modes,
``prune_reachable``, ``canonical_sdta``, the isomorphism test, and the
determinization and minimization of its horizontal machines; a further
family builds marked unions of disjoint and of overlapping DFAs.  Every
rendered document, conversion report, verdict and error message is hashed
into one sha256 per family.  Refactors of the constructions must leave
every digest here unchanged.
"""

import hashlib
import random

import pytest

from uta import (DFA, NTA_DFA, TreeAutomaton, UtaError, canonical_sdta, determinize,
                 dtadfa_to_sdta, marked_union, minimize_dfa, minimize_moore,
                 nta_to_dtadfa, nta_to_sdta, prune_reachable, sdta_isomorphic,
                 sdta_to_dtadfa)
from uta.docs import render_automaton

from randgen import (canonical_form, rand_dta_nfa, rand_dtadfa, rand_nta, rand_sdta,
                     rename_sdta)

SEEDS = range(100)

GOLDEN = {
    "sdta": "a19c54704dca2f688e73ad387da6c9615f690893a4dabaca1899c3a42ddb44b6",
    "dtadfa": "825e395393931498e61983e3dc37ccc0ea665cc85a0a3e54fb2b4dc698fa98d8",
    "nta": "50e4283b63ac5951a33870a9d455e62d69e0155504b540ba6a70151a5f19b01d",
    "dta_nfa": "caef5751764b2d51994efbe05d8a1742c8f5e354b6e9f624dda61ffafa511508",
    "marked_union": "16bbeb588635a3e4d3cf2cda42b44c6b323ec67701938e65e42f252ad31e15b0",
}


def _outcome(f, *args, **kwargs):
    """The call's result, or the error it raised as ``Name: message``."""
    try:
        return f(*args, **kwargs)
    except UtaError as e:
        return f"{type(e).__name__}: {e}"


def _horizontal_lines(mach) -> list:
    d = determinize(mach)
    m = minimize_dfa(d)
    out = [render_automaton(d), render_automaton(m), repr(canonical_form(m))]
    if hasattr(mach, "outputs"):
        mm = minimize_moore(mach)
        out += [render_automaton(mm), repr(canonical_form(mm))]
    return out


def _sdta_lines(rng, a) -> list:
    """Prune, canonicalize and split an SDTA; test isomorphism both ways."""
    c = canonical_sdta(a)
    out = [render_automaton(prune_reachable(a)), render_automaton(c),
           repr(sdta_isomorphic(c, rename_sdta(rng, c))),
           repr(_outcome(sdta_isomorphic, a, c))]
    split = _outcome(sdta_to_dtadfa, a)
    if isinstance(split, str):
        return out + [split]
    out += [render_automaton(split[0]), split[1].render()]
    for sym in sorted(a.moore):
        out += _horizontal_lines(a.moore[sym])
    return out


def _lines(rng, a) -> list:
    out = [render_automaton(a), render_automaton(prune_reachable(a))]
    if a.kind == "sdta":
        out += _sdta_lines(rng, a)
        for f in (nta_to_sdta, nta_to_dtadfa, dtadfa_to_sdta):
            out.append(_outcome(f, a))
        return out
    out.append(_outcome(sdta_to_dtadfa, a))
    # the same automaton with determinized acceptors, which may overlap
    dfas = TreeAutomaton(NTA_DFA, a.alphabet, a.states, a.finals,
                         horizontal={k: determinize(m) for k, m in a.horizontal.items()},
                         leaf_symbols=a.leaf_symbols)
    for f, arg, general in ((nta_to_sdta, a, False), (nta_to_sdta, a, True),
                            (nta_to_dtadfa, a, False), (nta_to_dtadfa, a, True),
                            (dtadfa_to_sdta, a, None), (dtadfa_to_sdta, dfas, None)):
        got = (_outcome(f, arg) if general is None
               else _outcome(f, arg, force_general=general))
        if isinstance(got, str):
            out.append(got)
            continue
        conv, report = got
        out += [render_automaton(conv), report.render()]
        if conv.kind == "sdta":
            out += _sdta_lines(rng, conv)
    for key in sorted(a.horizontal):
        out += _horizontal_lines(a.horizontal[key])
    return out


def _rand_parts(rng, disjoint: bool) -> list:
    """DFAs over one alphabet: copies of one master with the finals split
    among them (disjoint), or independent partial DFAs (may overlap)."""
    alphabet = ["a", "b"][: rng.randint(1, 2)]
    count = rng.randint(1, 4)
    if disjoint:
        states = [f"g{i}" for i in range(rng.randint(1, 5))]
        trans = [(s, c, rng.choice(states)) for s in states for c in alphabet]
        owner = {s: rng.randrange(count + 1) for s in states}
        return [DFA(states, alphabet, "g0", {s for s in states if owner[s] == i}, trans)
                for i in range(count)]
    parts = []
    for _ in range(count):
        states = [f"g{i}" for i in range(rng.randint(1, 4))]
        trans = [(s, c, rng.choice(states)) for s in states for c in alphabet
                 if rng.random() < 0.7]
        finals = {s for s in states if rng.random() < 0.4}
        parts.append(DFA(states, alphabet, "g0", finals, trans))
    return parts


def _marked_union_lines(rng) -> list:
    out = []
    for disjoint in (True, False):
        got = _outcome(marked_union, _rand_parts(rng, disjoint))
        if isinstance(got, str):
            out.append(got)
            continue
        m = got.map_outputs(str)
        mm = minimize_moore(m)
        out += [render_automaton(m), render_automaton(mm), repr(canonical_form(mm))]
    return out


FAMILIES = {
    "sdta": lambda rng: _lines(rng, rand_sdta(rng)),
    "dtadfa": lambda rng: _lines(rng, rand_dtadfa(rng)),
    "nta": lambda rng: _lines(rng, rand_nta(rng)),
    "dta_nfa": lambda rng: _lines(rng, rand_dta_nfa(rng)),
    "marked_union": _marked_union_lines,
}


def family_digest(family: str) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        for line in FAMILIES[family](random.Random(seed)):
            h.update(line.encode())
            h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_golden_lib(family):
    assert family_digest(family) == GOLDEN[family]


def test_golden_lib_sees_errors_and_successes():
    """Each family's lines hold results as well as error messages, so a
    digest cannot be pinned on a run where every operation failed."""
    for family, make in FAMILIES.items():
        lines = [x for seed in range(10) for x in make(random.Random(seed))]
        assert any(x.startswith("kind: ") for x in lines), family
        assert any(x.startswith(("KindError", "OverlapError")) for x in lines), family
