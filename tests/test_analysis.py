import collections
import random
import time
from itertools import permutations

import pytest

import uta.analysis
from uta import (DTA_NFA, NFA, NTA_NFA, SDTA, AlphabetMismatchError, KindError,
                 MooreDFA, TreeAutomaton, UtaError, accepts, canonical_sdta,
                 dtadfa_to_sdta, equiv_bounded, equiv_canonical, gen_lemma34,
                 gen_thm41, minimize_moore, nta_to_dtadfa, nta_to_sdta, parse_tree,
                 prune_reachable, sdta_isomorphic, sdta_to_dtadfa, size, subset_name)
from uta import EnumerationBounds, EquivalenceVerdict, iter_trees
from uta.automata import _evaluate, bottom_up_reach
from uta.cli import cli_main
from uta.docs import render_automaton
from uta.trees import DEFAULT_BOUNDS

from oracles import canonical_sdta_dense, stepwise
from randgen import (canonical_form, inflate_sdta, rand_dta_nfa, rand_dtadfa, rand_nta,
                     rand_sdta, rand_sdta_leaves, rename_sdta)

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


def _enumeration_oracle(a, b, bounds):
    """Test-only oracle: ``equiv_bounded`` as it was before its fixed-point
    shortcut, enumerating and evaluating every tree within bounds."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError(
            f"alphabets differ: {sorted(a.alphabet)} vs {sorted(b.alphabet)}")
    memo_a, memo_b = {}, {}
    for t in iter_trees(a.alphabet, bounds):
        if (bool(_evaluate(a, t, memo_a) & a.finals)
                != bool(_evaluate(b, t, memo_b) & b.finals)):
            return EquivalenceVerdict(False, t, "bounded-enumeration")
    return EquivalenceVerdict(True, None, "bounded-enumeration")


def _outcome(f, *args):
    """The verdict, or the error raised as (type name, message)."""
    try:
        return f(*args)
    except UtaError as e:
        return type(e).__name__, str(e)


def _mislabelled(a):
    """An NTA declared dta-nfa.  Kinds are not checked at construction, so
    its runs may assign two states to a node, which raises KindError."""
    return TreeAutomaton(DTA_NFA, a.alphabet, a.states, a.finals,
                         horizontal=a.horizontal, leaf_symbols=a.leaf_symbols)


FAMILIES = (rand_sdta, rand_dtadfa, rand_nta, rand_dta_nfa,
            lambda rng: _mislabelled(rand_nta(rng)))

# depth 1, width 0, a cap cutting into a level for 2 and 3 symbols, and a
# cap past every tree of 1 to 3 symbols
CROSS_BOUNDS = (EnumerationBounds(1, 3, 50), EnumerationBounds(3, 0, 50),
                EnumerationBounds(3, 3, 200), EnumerationBounds(2, 3, 200))


def _round_trips(rng):
    """Language-equal pairs: each random family against its conversions,
    and the lemma 3.4 and theorem 4.1 witnesses (designated leaf states)."""
    pairs = []
    for _ in range(8):
        a = rand_sdta(rng)
        pairs.append((a, sdta_to_dtadfa(a)[0]))
        a = rand_dtadfa(rng)
        pairs += [(a, dtadfa_to_sdta(a)[0]), (a, nta_to_sdta(a)[0])]
        for a in (rand_nta(rng), rand_dta_nfa(rng)):
            pairs += [(a, nta_to_sdta(a)[0]), (a, nta_to_dtadfa(a)[0])]
    base = gen_lemma34((2, 3))[0]
    pairs += [(base, dtadfa_to_sdta(base)[0]), (base, nta_to_sdta(base)[0])]
    base = gen_thm41(2)[0]
    pairs += [(base, nta_to_dtadfa(base)[0]), (base, nta_to_sdta(base)[0])]
    return pairs


class TestEquivBoundedAgainstOracle:
    def test_random_pairs_and_round_trips(self):
        rng = random.Random(61)
        pairs = []
        while len(pairs) < 400:
            i = len(pairs)
            a = FAMILIES[i % len(FAMILIES)](rng)
            b = FAMILIES[(i // len(FAMILIES)) % len(FAMILIES)](rng)
            if a.alphabet == b.alphabet:
                pairs.append((a, b))
        pairs += _round_trips(rng)
        seen = {"equal": 0, "differ": 0, "KindError": 0}
        for a, b in pairs:
            for bounds in CROSS_BOUNDS:
                got = _outcome(equiv_bounded, a, b, bounds)
                assert got == _outcome(_enumeration_oracle, a, b, bounds)
                if isinstance(got, EquivalenceVerdict):
                    seen["equal" if got.equal else "differ"] += 1
                else:
                    seen[got[0]] += 1
        assert min(seen.values()) >= 50, seen

    def test_difference_deeper_than_max_depth_is_equal(self):
        everything, deep = _depth_at_most(3)
        for depth, want in ((3, None), (4, "a(a(a(a)))")):
            bounds = EnumerationBounds(depth, 2, 1000)
            v = equiv_bounded(everything, deep, bounds)
            assert v == _enumeration_oracle(everything, deep, bounds)
            assert (v.equal, v.counterexample) == (
                want is None, want and parse_tree(want, "a"))

    def test_two_states_past_the_cap_is_equal(self):
        a = _two_states_at_arity_3()
        nta = TreeAutomaton(NTA_NFA, a.alphabet, a.states, a.finals,
                            horizontal=a.horizontal)
        # a(a,a,a) renders last of the 8 trees of 1 to 4 nodes
        for cap in (7, 8):
            bounds = EnumerationBounds(3, 3, cap)
            got = _outcome(equiv_bounded, a, nta, bounds)
            assert got == _outcome(_enumeration_oracle, a, nta, bounds)
            if cap == 7:
                assert got.equal
            else:
                assert got == ("KindError", "deterministic kind dta-nfa assigned "
                               "['p', 'r'] at a 'a' node")

    def test_designated_leaf_state(self):
        b_leaf = TreeAutomaton(NTA_NFA, "ab", [], ["b"], leaf_symbols="b")
        b_state = TreeAutomaton(NTA_NFA, "ab", ["qb"], ["qb"],
                                horizontal={("qb", "b"): NFA("i", ["qb"], "i", "i", [])})
        a_state = TreeAutomaton(NTA_NFA, "ab", ["qa"], ["qa"],
                                horizontal={("qa", "a"): NFA("i", ["qa"], "i", "i", [])})
        bounds = EnumerationBounds(3, 2, 100)
        for other, want in ((b_state, None), (a_state, "a")):
            v = equiv_bounded(b_leaf, other, bounds)
            assert v == _enumeration_oracle(b_leaf, other, bounds)
            assert v.counterexample == (want and parse_tree(want, "ab"))


def _depth_at_most(n):
    """Two SDTAs over {a} with the same runs: one accepting every tree, one
    the trees of depth <= n.  The Moore state ``m<i>`` is the largest child
    depth so far, capped at n."""
    qs = [f"q{d}" for d in range(1, n + 2)]  # q<n+1>: depth > n
    ms = [f"m{i}" for i in range(n + 1)]
    trans = [(f"m{i}", f"q{d}", f"m{min(n, max(i, d))}")
             for i in range(n + 1) for d in range(1, n + 2)]
    moore = MooreDFA(ms, qs, "m0", ms, trans, {f"m{i}": f"q{i + 1}" for i in range(n + 1)})
    return tuple(TreeAutomaton(SDTA, "a", qs, finals, moore={"a": moore})
                 for finals in (qs, qs[:n]))


def _two_states_at_arity_3():
    """dta-nfa over {a}: p labels every node, r also labels a node with
    exactly three children, so a(a,a,a) is assigned {p, r}."""
    h = ["p", "r"]
    any_word = NFA(["s"], h, ["s"], ["s"], [("s", c, "s") for c in h])
    three = NFA(["t0", "t1", "t2", "t3"], h, ["t0"], ["t3"],
                [(f"t{i}", c, f"t{i + 1}") for i in range(3) for c in h])
    return TreeAutomaton(DTA_NFA, "a", h, ["p"],
                         horizontal={("p", "a"): any_word, ("r", "a"): three})


class TestAgreeingInputsEnumerateNothing:
    @pytest.fixture(autouse=True)
    def no_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("equiv_bounded enumerated trees")
        monkeypatch.setattr(uta.analysis, "iter_trees", refuse)

    def test_lemma34_against_itself_at_default_bounds(self):
        base = gen_lemma34((2, 3))[0]
        assert equiv_bounded(base, base, DEFAULT_BOUNDS).equal

    def test_difference_only_past_the_width_bound(self):
        everything, leaves = _depth_at_most(1)
        assert equiv_bounded(everything, leaves, EnumerationBounds(4, 0, 1000)).equal

    def test_conversions_checked_by_the_benchmark(self):
        base = gen_lemma34((2, 3))[0]
        assert equiv_bounded(base, dtadfa_to_sdta(base)[0], DEFAULT_BOUNDS).equal
        base = gen_thm41(2)[0]
        assert equiv_bounded(base, nta_to_dtadfa(base)[0], DEFAULT_BOUNDS).equal


class TestCanonicalSdta:
    def test_idempotent(self, lemma34_sdta):
        c1 = canonical_sdta(lemma34_sdta)
        c2 = canonical_sdta(c1)
        assert render_automaton(c1) == render_automaton(c2)

    def test_language_equal_inputs_render_identically(self):
        rng = random.Random(47)
        pairs = []
        while len(pairs) < 400:
            x = rand_sdta(rng)
            split = sdta_to_dtadfa(x)[0]
            pairs += [(x, rename_sdta(rng, x)), (x, inflate_sdta(rng, x)),
                      (x, nta_to_sdta(split)[0]), (x, dtadfa_to_sdta(split)[0])]
        # designated leaf states, and the two routes of the command line
        for base in (gen_lemma34((2, 3))[0], gen_lemma34((2, 3, 5))[0]):
            pairs.append((dtadfa_to_sdta(base)[0], nta_to_sdta(base, force_general=True)[0]))
        for base in (gen_thm41(2)[0], gen_thm41(3)[0]):
            pairs.append((nta_to_sdta(base)[0], nta_to_sdta(base, force_general=True)[0]))
        merged = 0
        for x, y in pairs:
            cx = canonical_sdta(x)
            assert render_automaton(cx) == render_automaton(canonical_sdta(y))
            merged += size(cx) != size(prune_reachable(x))
        assert merged >= 50

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


def _useful_trim(a):
    """Test-only usefulness trim of a pruned SDTA, by a top-down fixed point.
    The final states are useful; a state is useful once some machine reads
    it on a transition into a state from which a final state with a useful
    output is reachable.  Useless states, and the finals whose output is
    useless, are dropped; ``prune_reachable`` then drops what that strands."""
    useful = set(a.finals & a.states)
    changed = True
    while changed:
        changed = False
        for m in a.moore.values():
            back = {s for s in m.finals if m.outputs[s] in useful}
            grew = True
            while grew:
                grew = False
                for (s, c), d in m.delta.items():
                    if d in back and s not in back:
                        back.add(s)
                        grew = True
            for (s, c), d in m.delta.items():
                if d in back and c in a.states and c not in useful:
                    useful.add(c)
                    changed = True
    allowed = useful | a.leaf_symbols
    moore = {}
    for sym, m in a.moore.items():
        finals = {s for s in m.finals if m.outputs[s] in useful}
        moore[sym] = MooreDFA(m.states, allowed, m.initial, finals,
                              [(s, c, d) for (s, c), d in m.delta.items() if c in allowed],
                              {s: m.outputs[s] for s in finals})
    return prune_reachable(TreeAutomaton(SDTA, a.alphabet, useful, a.finals, moore=moore,
                                         leaf_symbols=a.leaf_symbols))


def _nested_reference(a):
    """Test-only reference: ``canonical_sdta`` as it was before the joint
    partition refinement, without the normal naming.  After ``_useful_trim``,
    from the vertical partition {finals, non-finals} it alternately
    minimizes each per-symbol machine as a Moore machine whose outputs are
    the current vertical blocks, and splits the blocks whose members act
    differently as letters of some minimized machine, until no block
    splits; then it quotients."""
    a = _useful_trim(prune_reachable(a))
    states = sorted(a.states)
    block = {q: (q in a.finals) for q in states}
    while True:
        reduced = {sym: minimize_moore(m.map_outputs(block.__getitem__))
                   for sym, m in sorted(a.moore.items())}
        sig = {}
        for q in states:
            parts = [block[q]]
            for sym, mach in sorted(reduced.items()):
                for s in sorted(mach.states):
                    parts.append((sym, s, mach.delta.get((s, q))))
            sig[q] = tuple(parts)
        ids: dict = {}
        nblock = {q: ids.setdefault(sig[q], len(ids)) for q in states}
        if len(set(nblock.values())) == len(set(block.values())):
            break
        block = nblock

    members: dict = {}
    for q in states:
        members.setdefault(block[q], []).append(q)
    name = {b: qs[0] if len(qs) == 1 else subset_name(qs) for b, qs in members.items()}
    ha = frozenset(name.values()) | a.leaf_symbols
    moore = {}
    for sym, mach in sorted(reduced.items()):
        trans: dict = {}
        for (s, c), d in mach.delta.items():
            key = (s, name[block[c]] if c in block else c)
            assert trans.setdefault(key, d) == d, "block mates disagreed inside a machine"
        moore[sym] = MooreDFA(mach.states, ha, mach.initial, mach.finals,
                              [(s, c, d) for (s, c), d in sorted(trans.items())],
                              {s: name[b] for s, b in mach.outputs.items()})
    finals = {name[b] for b, qs in members.items() if qs[0] in a.finals}
    finals |= a.finals & a.leaf_symbols
    return TreeAutomaton(SDTA, a.alphabet, name.values(), finals, moore=moore,
                         leaf_symbols=a.leaf_symbols)


class TestCanonicalAgainstNestedReference:
    def test_random_families_and_witnesses(self):
        inputs = []
        for seed in range(100):
            rng = random.Random(seed)
            x = rand_sdta(rng)
            inputs.append(x)
            for a in (sdta_to_dtadfa(x)[0], rand_dtadfa(rng), rand_nta(rng),
                      rand_dta_nfa(rng)):
                inputs += [nta_to_sdta(a)[0], nta_to_sdta(a, force_general=True)[0]]
        for n in (2, 3, 4):
            base = gen_thm41(n)[0]
            inputs += [nta_to_sdta(base)[0], nta_to_sdta(base, force_general=True)[0]]
        for k in ((2, 3), (2, 3, 5), (2, 3, 5, 7)):
            base = gen_lemma34(k)[0]
            inputs += [dtadfa_to_sdta(base)[0], nta_to_sdta(base, force_general=True)[0]]
        merged = 0
        for x in inputs:
            got, want = canonical_sdta(x), _nested_reference(x)
            assert size(got) == size(want)
            assert sdta_isomorphic(got, want)
            merged += size(got) != size(prune_reachable(x))
        assert merged >= 100


class TestCanonicalAgainstDenseOracle:
    """``canonical_sdta`` trims the useless states first and then refines
    sparse rows; ``oracles.canonical_sdta_dense`` refines dense rows over
    sink elements.  Both must render byte for byte the same."""

    def test_seeded_draws(self):
        seen = collections.Counter()
        for seed in range(300):
            rng = random.Random(seed)
            x, y = rand_sdta(rng), rand_sdta_leaves(rng)
            draws = [x, inflate_sdta(rng, x), dtadfa_to_sdta(rand_dtadfa(rng))[0],
                     nta_to_sdta(rand_nta(rng))[0], nta_to_sdta(rand_dta_nfa(rng))[0],
                     y, inflate_sdta(rng, y), nta_to_sdta(sdta_to_dtadfa(y)[0])[0]]
            for k, a in enumerate(draws):
                c = canonical_sdta(a)
                assert render_automaton(c) == render_automaton(canonical_sdta_dense(a)), (seed, k)
                pruned = prune_reachable(a)
                trimmed = size(_useful_trim(pruned))
                seen["draws"] += 1
                seen["trimmed"] += trimmed != size(pruned)
                seen["merged"] += size(c) != trimmed
                for leaf in sorted(a.leaf_symbols):
                    accepted = accepts(a, parse_tree(leaf, a.alphabet))
                    assert accepts(c, parse_tree(leaf, a.alphabet)) == accepted, (seed, k, leaf)
                    seen["final leaf"] += accepted
                    seen["nonfinal leaf"] += not accepted
        assert seen["draws"] >= 2000 and min(seen.values()) >= 200, seen

    @pytest.mark.parametrize("make", [
        lambda: dtadfa_to_sdta(gen_lemma34((2, 3, 5, 7))[0])[0],
        lambda: dtadfa_to_sdta(gen_lemma34((3, 4, 5, 7))[0])[0],
        lambda: nta_to_sdta(gen_thm41(3)[0])[0],
        lambda: nta_to_sdta(gen_thm41(4)[0])[0],
        lambda: nta_to_sdta(gen_thm41(5)[0])[0],
    ], ids=["lemma34(2,3,5,7)", "lemma34(3,4,5,7)", "thm41(3)", "thm41(4)", "thm41(5)"])
    def test_witnesses(self, make):
        a = make()
        assert render_automaton(canonical_sdta(a)) == render_automaton(canonical_sdta_dense(a))

    def test_useless_output_is_no_output(self):
        # b(a) is assigned u, which no tree reads and which is not final, so
        # g1 (outputs u) and g2 (outputs nothing) behave alike and merge
        m = MooreDFA(["g0", "g1", "g2", "gF"], ["a", "q", "u"], "g0", ["g1", "gF"],
                     [("g0", "a", "g1"), ("g1", "a", "gF"), ("g2", "a", "gF"),
                      ("g1", "q", "g2"), ("g2", "q", "g1")], {"g1": "u", "gF": "q"})
        a = TreeAutomaton(SDTA, "ab", ["q", "u"], ["q"], moore={"b": m}, leaf_symbols="a")
        c = canonical_sdta(a)
        assert str(size(c)) == "[1; 3]" and c == canonical_sdta_dense(a)


def _seeded_pair(seed):
    """Two automata of the four sound families, each family drawn by rng;
    every third seed pairs an automaton with one of its own conversions."""
    rng = random.Random(seed)
    make_a, make_b = rng.choice(FAMILIES[:4]), rng.choice(FAMILIES[:4])
    a = make_a(rng)
    if seed % 3 == 0:
        return a, (sdta_to_dtadfa(a)[0] if a.kind == SDTA
                   else nta_to_sdta(a, force_general=True)[0])
    return a, make_b(rng)


def _as_sdta(a):
    return a if a.kind == SDTA else nta_to_sdta(a)[0]


def _pair_fixed_point_equal(a, b):
    """Test-only exact equivalence: the ``bottom_up_reach`` fixed point of
    one machine per symbol whose state is (run of a, run of b, any child
    read), with no child counter, reaches every pair of state sets that
    some tree of any arity and depth makes a and b assign.  The languages
    are equal iff every reached pair agrees on acceptance."""
    def machine(sym):
        start_a, step_a, finish_a = a.horizontal_run(sym)
        start_b, step_b, finish_b = b.horizontal_run(sym)

        def step(state, letter):
            now_a, now_b, _ = state
            if now_a is None and now_b is None:
                return None
            return (None if now_a is None else step_a(now_a, letter[0]),
                    None if now_b is None else step_b(now_b, letter[1]), True)

        def outputs(states):
            return [(finish_a(now_a, not read), finish_b(now_b, not read))
                    for now_a, now_b, read in states]

        return [(start_a, start_b, False)], stepwise(step), outputs

    reached = bottom_up_reach([machine(sym) for sym in sorted(a.alphabet)], ())
    return all(bool(s_a & a.finals) == bool(s_b & b.finals) for s_a, s_b in reached)


class TestCanonicalTrimsUselessStates:
    def test_seed_517_empty_languages_are_equal(self):
        pair = _seeded_pair(517)
        assert [x.kind for x in pair] == [DTA_NFA, DTA_NFA]
        a, b = map(_as_sdta, pair)
        assert a.alphabet == b.alphabet and _pair_fixed_point_equal(a, b)
        ca = canonical_sdta(a)
        assert ca == canonical_sdta(b) and not ca.states and not ca.moore
        assert equiv_canonical(a, b, BOUNDS) == EquivalenceVerdict(True, None, "canonical-sdta")

    def test_seed_517_through_the_command_line(self, tmp_path, capsys):
        paths = []
        for n, x in enumerate(_seeded_pair(517)):
            path = tmp_path / f"s{n}.uta"
            path.write_text(render_automaton(_as_sdta(x)))
            paths.append(str(path))
        assert cli_main(["equiv", *paths]) == 0
        assert capsys.readouterr().out == "equal (canonical-sdta)\n"

    def test_canonical_equality_is_language_equality(self):
        compared = disagreeing = 0
        for seed in range(720):
            a, b = _seeded_pair(seed)
            if a.alphabet != b.alphabet:
                continue
            a, b = _as_sdta(a), _as_sdta(b)
            equal = _pair_fixed_point_equal(a, b)
            assert (canonical_sdta(a) == canonical_sdta(b)) == equal, seed
            compared += 1
            disagreeing += not equal
        assert compared >= 400 and 0 < disagreeing < compared

    def test_idempotent_and_never_grows_on_inputs_with_useless_states(self):
        useless = 0
        for seed in range(100):
            rng = random.Random(seed)
            x = rand_sdta(rng)
            inputs = [x]
            for a in (sdta_to_dtadfa(x)[0], rand_dtadfa(rng), rand_nta(rng),
                      rand_dta_nfa(rng)):
                inputs += [nta_to_sdta(a)[0], nta_to_sdta(a, force_general=True)[0]]
            for x in inputs:
                pruned, c = prune_reachable(x), canonical_sdta(x)
                assert size(c) <= size(pruned) and canonical_sdta(c) == c
                useless += size(_useful_trim(pruned)) != size(pruned)
        assert useless >= 100


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


SDTA_MAKERS = (rand_sdta, rand_sdta_leaves, lambda rng: dtadfa_to_sdta(rand_dtadfa(rng))[0],
               lambda rng: nta_to_sdta(rand_nta(rng))[0],
               lambda rng: nta_to_sdta(rand_dta_nfa(rng))[0])


def _product_pair(rng):
    """An SDTA of any maker and a partner: renamed or inflated (the same
    language), one final toggled, a designated leaf state or a vertical
    one (most often another language), a redirected transition, or a fresh
    draw of any maker."""
    a = rng.choice(SDTA_MAKERS)(rng)
    how = rng.randrange(5)
    if how == 0 or (how == 1 and not a.states):
        return a, rename_sdta(rng, a)
    if how == 1:
        return a, rename_sdta(rng, inflate_sdta(rng, a))
    if how == 2:
        return a, _with(a, finals=a.finals ^ {rng.choice(sorted(a.states | a.leaf_symbols))})
    if how == 3 and (b := _redirected(rng, a)) is not None:
        return a, b
    return a, rng.choice(SDTA_MAKERS)(rng)


class TestPairProduct:
    """``equiv_canonical`` decides "equal" by one pair product of the two
    SDTAs, with no canonicalization; equal canonical forms stay the
    reference."""

    def test_verdicts_are_those_of_canonical_forms(self):
        rng = random.Random(167)  # a generator of its own: no other seeded draw moves
        seen = collections.Counter()
        while seen["pairs"] < 480:
            a, b = _product_pair(rng)
            if a.alphabet != b.alphabet:
                continue
            v = equiv_canonical(a, b, EnumerationBounds(2, 2, 50))
            assert v.equal == (canonical_sdta(a) == canonical_sdta(b)), seen["pairs"]
            assert v.counterexample is None or accepts(a, v.counterexample) != accepts(
                b, v.counterexample)
            seen["pairs"] += 1
            seen["equal" if v.equal else "not equal"] += 1
            seen["final leaf"] += bool(a.finals & a.leaf_symbols)
        assert min(seen["equal"], seen["not equal"]) >= 100 and seen["final leaf"] >= 50, seen

    def test_a_non_sdta_raises_as_canonicalization_did(self):
        base = gen_lemma34((2, 3))[0]
        sdta = dtadfa_to_sdta(base)[0]
        with pytest.raises(KindError, match=r"^expected an SDTA, got dta-dfa$"):
            equiv_canonical(base, sdta)
        with pytest.raises(KindError, match=r"^expected an SDTA, got nta-dfa$"):
            equiv_canonical(sdta, gen_thm41(2)[0])

    def test_alphabets_that_differ_raise(self):
        a = TreeAutomaton(SDTA, "a", [], ["a"], moore={}, leaf_symbols="a")
        b = TreeAutomaton(SDTA, "ab", [], ["a"], moore={}, leaf_symbols="a")
        with pytest.raises(AlphabetMismatchError):
            equiv_canonical(a, b)

    def test_leaf_conventions_that_differ_are_not_equal(self):
        # both accept the bare leaf a alone: one by a machine, one by its leaf state
        once = MooreDFA(["h0"], ["q"], "h0", ["h0"], [], {"h0": "q"})
        by_machine = TreeAutomaton(SDTA, "a", ["q"], ["q"], moore={"a": once})
        by_leaf = TreeAutomaton(SDTA, "a", [], ["a"], moore={}, leaf_symbols="a")
        assert equiv_bounded(by_machine, by_leaf, BOUNDS).equal
        assert equiv_canonical(by_machine, by_leaf, BOUNDS) == EquivalenceVerdict(
            False, None, "canonical-sdta")


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

    def test_kind_checked(self, lemma34_sdta):
        with pytest.raises(KindError) as err:
            sdta_isomorphic(gen_lemma34((2, 3))[0], lemma34_sdta)
        assert str(err.value) == "isomorphism is defined for SDTAs"

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
