import random
import time
from itertools import permutations

import pytest

from uta import (SDTA, AlphabetMismatchError, KindError, MooreDFA, TreeAutomaton,
                 accepts, canonical_sdta, dtadfa_to_sdta, equiv_bounded,
                 equiv_canonical, gen_lemma34, gen_thm41, nta_to_sdta,
                 prune_reachable, sdta_isomorphic, size)
from uta import EnumerationBounds, iter_trees
from uta.strings import canonical_form

from randgen import inflate_sdta, rand_nta, rand_sdta, rename_sdta

BOUNDS = EnumerationBounds(3, 3, 400)


@pytest.fixture(scope="module")
def lemma34_sdta():
    return dtadfa_to_sdta(gen_lemma34((2, 3))[0])[0]


class TestEquivBounded:
    def test_reflexivity(self, lemma34_sdta):
        assert equiv_bounded(lemma34_sdta, lemma34_sdta, BOUNDS).equal

    def test_conversion_correctness(self, lemma34_sdta):
        base, _ = gen_lemma34((2, 3))
        v = equiv_bounded(base, lemma34_sdta, EnumerationBounds(4, 4, 800))
        assert v.equal and v.method == "bounded-enumeration"

    def test_emptied_finals_yield_counterexample(self, lemma34_sdta):
        hollow = TreeAutomaton("sdta", lemma34_sdta.alphabet, lemma34_sdta.states,
                               (), moore=lemma34_sdta.moore,
                               leaf_symbols=lemma34_sdta.leaf_symbols)
        v = equiv_bounded(lemma34_sdta, hollow, BOUNDS)
        assert not v.equal
        assert accepts(lemma34_sdta, v.counterexample)

    def test_counterexample_is_first_disagreement_in_order(self):
        rng = random.Random(11)
        found = 0
        for _ in range(40):
            a, b = rand_nta(rng), rand_nta(rng)
            if a.alphabet != b.alphabet:
                continue
            want = next((t for t in iter_trees(a.alphabet, BOUNDS)
                         if accepts(a, t) != accepts(b, t)), None)
            v = equiv_bounded(a, b, BOUNDS)
            assert v.counterexample == want
            assert v.equal == (want is None)
            found += want is not None
        assert found >= 5

    def test_alphabet_mismatch(self, lemma34_sdta):
        other, _ = nta_to_sdta(gen_thm41(1)[0])
        with pytest.raises(AlphabetMismatchError):
            equiv_bounded(lemma34_sdta, other)


class TestCanonicalSdta:
    def test_idempotent(self, lemma34_sdta):
        c1 = canonical_sdta(lemma34_sdta)
        c2 = canonical_sdta(c1)
        assert size(c1) == size(c2)
        assert sdta_isomorphic(c1, c2)

    def test_never_grows(self):
        rng = random.Random(17)
        for _ in range(10):
            a = rand_sdta(rng)
            assert size(canonical_sdta(a)) <= size(a)

    def test_duplicate_vertical_states_merged(self):
        rng = random.Random(23)
        a = canonical_sdta(rand_sdta(rng))
        bloated = inflate_sdta(rng, a)
        assert len(bloated.states) == len(a.states) + 1
        again = canonical_sdta(bloated)
        assert len(again.states) <= len(a.states)
        assert equiv_bounded(bloated, again, BOUNDS).equal

    def test_lemma34_lower_bound_held(self, lemma34_sdta):
        assert canonical_sdta(lemma34_sdta).moore["a"].size >= 6

    def test_language_preserved(self, lemma34_sdta):
        c = canonical_sdta(lemma34_sdta)
        assert equiv_bounded(lemma34_sdta, c, EnumerationBounds(4, 4, 800)).equal

    def test_kind_checked(self):
        with pytest.raises(KindError):
            canonical_sdta(gen_lemma34((2, 3))[0])


class TestEquivCanonical:
    def test_automaton_equals_its_canonical_form(self, lemma34_sdta):
        v = equiv_canonical(lemma34_sdta, canonical_sdta(lemma34_sdta), BOUNDS)
        assert v.equal and v.method == "canonical-sdta"

    def test_independent_routes_agree(self):
        base, _ = gen_lemma34((2, 3))
        via_product = dtadfa_to_sdta(base)[0]
        via_subsets = nta_to_sdta(base, force_general=True)[0]
        assert equiv_canonical(via_product, via_subsets, BOUNDS).equal

    def test_renaming_is_invisible(self):
        rng = random.Random(29)
        a = rand_sdta(rng)
        assert equiv_canonical(a, rename_sdta(rng, a), BOUNDS).equal

    def test_difference_found_by_fallback_enumeration(self):
        a = dtadfa_to_sdta(gen_lemma34((2, 3))[0])[0]
        b = dtadfa_to_sdta(gen_lemma34((3, 5))[0])[0]
        v = equiv_canonical(a, b, EnumerationBounds(4, 4, 3000))
        assert not v.equal and v.counterexample is not None
        assert accepts(a, v.counterexample) != accepts(b, v.counterexample)

    def test_agreement_with_bounded(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(12):
            a = rand_sdta(rng)
            if rng.random() < 0.5:
                b = inflate_sdta(rng, rename_sdta(rng, a))
            else:
                b = rand_sdta(rng)
            if a.alphabet != b.alphabet:
                continue
            vb = equiv_bounded(a, b, BOUNDS)
            vc = equiv_canonical(a, b, BOUNDS)
            if vc.equal:
                assert vb.equal  # canonical equality is never contradicted
            if not vb.equal:
                assert not vc.equal
            checked += 1
        assert checked >= 6


class TestPruneInteraction:
    def test_canonical_starts_from_pruned(self):
        rng = random.Random(37)
        a = rand_sdta(rng)
        assert size(canonical_sdta(a)) <= size(prune_reachable(a))


def _brute_isomorphic(a, b):
    """Oracle: try every finality-preserving bijection of vertical states and
    compare the per-symbol machines' canonical BFS forms.  Factorial time."""
    if (a.alphabet != b.alphabet or a.leaf_symbols != b.leaf_symbols
            or len(a.states) != len(b.states) or len(a.finals) != len(b.finals)
            or set(a.moore) != set(b.moore)
            or a.finals & a.leaf_symbols != b.finals & b.leaf_symbols):
        return False
    finals_a = sorted(a.states & a.finals)
    others_a = sorted(a.states - a.finals)
    forms_a = {sym: canonical_form(m) for sym, m in a.moore.items()}
    for perm_f in permutations(sorted(b.states & b.finals)):
        for perm_o in permutations(sorted(b.states - b.finals)):
            inverse = dict(zip(perm_f + perm_o, finals_a + others_a))
            if all(forms_a[sym] == canonical_form(_renamed(m, inverse))
                   for sym, m in b.moore.items()):
                return True
    return False


def _renamed(m, ren):
    return MooreDFA(m.states, {ren.get(c, c) for c in m.alphabet}, m.initial, m.finals,
                    [(s, ren.get(c, c), d) for s, c, d in m.transitions()],
                    {s: ren.get(v, v) for s, v in m.outputs.items()})


def _with(a, moore=None, finals=None):
    return TreeAutomaton(SDTA, a.alphabet, a.states,
                         a.finals if finals is None else finals,
                         moore=a.moore if moore is None else moore,
                         leaf_symbols=a.leaf_symbols)


def _redirected(rng, a):
    """``a`` with one Moore transition sent to another horizontal state, or
    None if no machine has two states and a transition."""
    choices = [(sym, s, c, d) for sym, m in sorted(a.moore.items()) if m.size > 1
               for s, c, d in m.transitions()]
    if not choices:
        return None
    sym, src, letter, dst = rng.choice(choices)
    m = a.moore[sym]
    to = rng.choice(sorted(m.states - {dst}))
    trans = [(s, c, to if (s, c) == (src, letter) else d) for s, c, d in m.transitions()]
    mutant = MooreDFA(m.states, m.alphabet, m.initial, m.finals, trans, m.outputs)
    return _with(a, moore={**a.moore, sym: mutant})


def _flipped(rng, a):
    """``a`` with one vertical state's finality flipped."""
    return _with(a, finals=a.finals ^ {rng.choice(sorted(a.states))})


class TestSdtaIsomorphic:
    def test_agrees_with_permutation_oracle(self):
        rng = random.Random(41)
        forms = []
        while len(forms) < 201:  # most random forms collapse to 0 or 1 states
            a = canonical_sdta(rand_sdta(rng, max_vertical=6))
            if len(a.states) >= 2:
                forms.append(a)
        assert max(len(a.states) for a in forms) <= 6
        verdicts = []
        for a, other in zip(forms, forms[1:]):
            for b in (rename_sdta(rng, a), _redirected(rng, a), _flipped(rng, a), other):
                if b is None:
                    continue
                want = _brute_isomorphic(a, b)
                if prune_reachable(b).states != b.states:
                    # a redirect can strand a state; an isomorph of a pruned
                    # automaton cannot have one
                    assert not want
                    with pytest.raises(KindError):
                        sdta_isomorphic(a, b)
                    continue
                assert sdta_isomorphic(a, b) == want
                assert sdta_isomorphic(b, a) == want
                verdicts.append(want)
        assert verdicts.count(True) >= 200
        assert verdicts.count(False) >= 20

    def test_unreachable_vertical_state_is_named(self):
        h = frozenset({"q0", "q1"})
        stranded = TreeAutomaton(
            SDTA, "a", h, {"q0"},
            moore={"a": MooreDFA({"h0"}, h, "h0", {"h0"},
                                 [("h0", "q0", "h0"), ("h0", "q1", "h0")], {"h0": "q0"})})
        pruned = prune_reachable(stranded)
        with pytest.raises(KindError, match="'q1'"):
            sdta_isomorphic(stranded, pruned)
        with pytest.raises(KindError, match="'q1'"):
            sdta_isomorphic(pruned, stranded)
        assert sdta_isomorphic(pruned, pruned)

    def test_renamed_thm41_4_decided_fast(self):
        c = canonical_sdta(nta_to_sdta(gen_thm41(4)[0])[0])
        assert len(c.states) == 15
        rng = random.Random(43)
        renamed = rename_sdta(rng, c)
        start = time.perf_counter()
        assert sdta_isomorphic(c, renamed)
        assert time.perf_counter() - start < 1.0
        mutant = _redirected(rng, renamed)
        assert prune_reachable(mutant).states == mutant.states
        assert not sdta_isomorphic(c, mutant)
