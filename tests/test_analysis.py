import random

import pytest

from uta import (AlphabetMismatchError, KindError, TreeAutomaton, accepts,
                 canonical_sdta, dtadfa_to_sdta, equiv_bounded,
                 equiv_canonical, gen_lemma34, gen_thm41, nta_to_sdta,
                 prune_reachable, sdta_isomorphic, size)
from uta import EnumerationBounds, iter_trees

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
