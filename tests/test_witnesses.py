import hashlib
import math
import random
from itertools import combinations

import pytest

from uta import (Context, SeparationError, SizePair, UtaError, accepts,
                 certify_horizontal_bound, certify_vertical_bound,
                 check_semantic_determinism, first_primes, gen_lemma34,
                 gen_thm41, leaf, lemma34_horizontal_fooling,
                 lemma34_vertical_fooling, nest, node, parse_tree, size,
                 word_node)
from uta import DocumentError, FoolingSetHorizontal, FoolingSetVertical, LangPredicate
from uta import EnumerationBounds, Tree, iter_trees
from uta.docs import parse_fooling_set, render_fooling_horizontal
from uta import witnesses
from uta.witnesses import _check_keys

from oracles import check_keys_by_loop, certify_horizontal_by_pair, certify_vertical_by_pair


def enum(alphabet, depth=4, width=4, count=600):
    return list(iter_trees(alphabet, EnumerationBounds(depth, width, count)))


class TestLemma34Generator:
    def test_size_formula(self):
        assert size(gen_lemma34((2, 3))[0]) == SizePair(2, 12)
        # per level: k + floor(log2 i) + 3
        assert size(gen_lemma34((3, 5, 7))[0]) == SizePair(3, (3 + 0 + 3) + (5 + 1 + 3) + (7 + 1 + 3))

    def test_memberships(self):
        auto, pred = gen_lemma34((2, 3))
        yes = ["a(b,b,1)", "a(1)", "a(a(1,0))", "a(a(b,b,b,1,0))"]
        no = ["a(b,1)", "a(b,b)", "a(a(1))", "b", "a(b,b,1,1)", "a(a(a(1,0)))"]
        for s in yes:
            t = parse_tree(s, auto.alphabet)
            assert pred(t) and accepts(auto, t), s
        for s in no:
            t = parse_tree(s, auto.alphabet)
            assert not pred(t) and not accepts(auto, t), s

    def test_generator_agrees_with_predicate(self):
        auto, pred = gen_lemma34((2, 3))
        for t in enum(auto.alphabet):
            assert accepts(auto, t) == pred(t), t
        # targeted chain grid: deep and narrow trees the enumeration misses
        for i in range(1, 5):
            for c in range(0, 8):
                for y in ("1", "10", "11", ""):
                    t = nest("a", i - 1, word_node("a", "b" * c + y))
                    assert accepts(auto, t) == pred(t), t

    def test_non_coprime_rejected(self):
        with pytest.raises(UtaError) as err:
            gen_lemma34((2, 4))
        assert "2" in str(err.value) and "4" in str(err.value)

    @pytest.mark.parametrize("build", [gen_lemma34, lemma34_vertical_fooling,
                                       lemma34_horizontal_fooling])
    @pytest.mark.parametrize("k, message", [
        ((), "need at least one modulus"),
        ((3, 2), "moduli must be >= 2 and strictly increasing: (3, 2)"),
        ((2, 2), "moduli must be >= 2 and strictly increasing: (2, 2)"),
        ((1, 3), "moduli must be >= 2 and strictly increasing: (1, 3)"),
        ((0,), "moduli must be >= 2 and strictly increasing: (0,)"),
        ((2, 4), "moduli 2 and 4 are not coprime"),
        ((3, 5, 9), "moduli 3 and 9 are not coprime"),
    ], ids=["empty", "unsorted", "repeated", "one", "zero", "non-coprime", "non-coprime-apart"])
    def test_every_builder_checks_its_moduli(self, build, k, message):
        # the fooling-set builders once skipped the check: (2, 4) raised a
        # bare TypeError in one and gave a 3-tree set in the other
        with pytest.raises(UtaError) as err:
            build(k)
        assert str(err.value) == message

    def test_not_increasing_rejected(self):
        with pytest.raises(UtaError):
            gen_lemma34((3, 2))

    def test_bottom_up_deterministic(self):
        assert check_semantic_determinism(gen_lemma34((2, 3, 5))[0]).ok


class TestThm41Generator:
    def test_size_formula(self):
        for n in (1, 2, 4):
            auto, _ = gen_thm41(n)
            assert size(auto) == SizePair(n, sum(first_primes(n)) + 2 * n)

    def test_membership_grid(self):
        auto, pred = gen_thm41(2)
        for i in range(1, 7):
            j = ((i - 1) % 2) + 1
            p = (2, 3)[j - 1]
            for k in range(0, 19):
                t = nest("a", i - 1, word_node("a", "b" * k))
                expect = k % p == 0
                assert pred(t) == expect
                assert accepts(auto, t) == expect, (i, k)

    def test_rejects_non_chain_shapes(self):
        auto, pred = gen_thm41(2)
        for s in ["b", "b(b)", "a(b,a)", "a(a(b),b)", "a(a,a)"]:
            t = parse_tree(s, auto.alphabet)
            assert not pred(t) and not accepts(auto, t), s

    def test_mod_one_degeneracy(self):
        auto, pred = gen_thm41(1)
        assert accepts(auto, parse_tree("a(b,b)", auto.alphabet))
        assert not accepts(auto, parse_tree("a(b)", auto.alphabet))
        # every chain length qualifies once the count is even
        for i in range(1, 6):
            t = nest("a", i - 1, word_node("a", "bb"))
            assert accepts(auto, t) and pred(t)

    def test_bad_n_rejected(self):
        with pytest.raises(UtaError):
            gen_thm41(0)

    def test_agreement_on_enumerated_trees(self):
        auto, pred = gen_thm41(2)
        for t in enum(auto.alphabet):
            assert accepts(auto, t) == pred(t), t


class TestCertifiers:
    def test_lemma34_vertical_bound(self):
        _, pred = gen_lemma34((2, 3))
        assert certify_vertical_bound(pred, lemma34_vertical_fooling((2, 3))) == 2

    def test_lemma34_horizontal_bound(self):
        _, pred = gen_lemma34((2, 3))
        assert certify_horizontal_bound(pred, lemma34_horizontal_fooling((2, 3))) == 5

    def test_singleton_sets_certify_zero(self):
        _, pred = gen_lemma34((2, 3))
        assert certify_vertical_bound(pred, FoolingSetVertical([leaf("b")])) == 0
        assert certify_horizontal_bound(
            pred, FoolingSetHorizontal([(leaf("b"),)], "a")) == 0

    def test_empty_sets_are_usage_errors(self):
        _, pred = gen_lemma34((2, 3))
        for certify, fs in ((certify_vertical_bound, FoolingSetVertical([])),
                            (certify_horizontal_bound, FoolingSetHorizontal([], "a"))):
            with pytest.raises(UtaError) as err:
                certify(pred, fs)
            assert not isinstance(err.value, SeparationError)

    def test_supplied_separator_that_fails_is_refuted(self):
        _, pred = gen_lemma34((2, 3))
        fs = FoolingSetVertical(
            [parse_tree("a(b,b,1)", pred.alphabet), parse_tree("a(1)", pred.alphabet)],
            {(0, 1): Context(leaf("x"))})  # both are in the language
        with pytest.raises(SeparationError) as err:
            certify_vertical_bound(pred, fs)
        assert not err.value.unknown

    def test_inseparable_pair_reports_unknown(self):
        # a predicate that ignores its input cannot distinguish anything
        flat = LangPredicate(frozenset("ab"), lambda t: True, "everything")
        fs = FoolingSetVertical([leaf("a"), leaf("b")])
        with pytest.raises(SeparationError) as err:
            certify_vertical_bound(flat, fs)
        assert err.value.unknown

    def test_search_discovers_simple_separators(self):
        _, pred = gen_lemma34((2, 3))
        fs = FoolingSetVertical(
            [parse_tree("a(b,b,1)", pred.alphabet), parse_tree("a(b)", pred.alphabet)])
        assert certify_vertical_bound(pred, fs) == 1

    def test_certified_bounds_below_constructed_sizes(self):
        from uta import canonical_sdta, dtadfa_to_sdta
        auto, pred = gen_lemma34((2, 3))
        sdta = canonical_sdta(dtadfa_to_sdta(auto)[0])
        v = certify_vertical_bound(pred, lemma34_vertical_fooling((2, 3)))
        h = certify_horizontal_bound(pred, lemma34_horizontal_fooling((2, 3)))
        assert v <= len(sdta.states)
        assert h <= sdta.moore["a"].size


def _per_pair_horizontal_fooling(k):
    """The per-pair reference for ``lemma34_horizontal_fooling``: each pair
    looks up the first modulus that does not divide its gap, and a separator
    is made the first time its (padding length, modulus) is met.  Also
    returns that (padding length, modulus) for every pair."""
    total = math.prod(k)
    b = leaf("b")
    contexts = [Context(nest("a", i - 1, Tree("x"))) for i in range(1, len(k) + 1)]
    shared, seps, used = {}, {}, {}
    for r, s in combinations(range(total), 2):
        i = next(i for i, ki in enumerate(k, start=1) if (s - r) % ki)
        gap = (-r) % k[i - 1]
        if (gap, i) not in shared:
            padding = (b,) * gap + tuple(leaf(bit) for bit in format(i, "b"))
            shared[gap, i] = (contexts[i - 1], padding)
        seps[(r, s)], used[(r, s)] = shared[gap, i], (gap, i)
    return FoolingSetHorizontal([(b,) * r for r in range(total)], "a", seps), used


def _sep_text(sep):
    ctx, padding = sep
    return f"{ctx} | {' '.join(map(str, padding))}"


class TestHorizontalFoolingInBulk:
    @pytest.mark.parametrize("k, distinct", [
        ((2, 3), 5), ((2, 5), 7), ((3, 4), 7), ((2, 3, 5), 10), ((3, 4, 5), 12),
        ((2, 3, 5, 7), 17), ((3, 4, 5, 7), 19)])
    def test_agrees_with_the_per_pair_reference(self, k, distinct):
        got = lemma34_horizontal_fooling(k)
        want, used = _per_pair_horizontal_fooling(k)
        assert got.tuples == want.tuples and got.symbol == want.symbol == "a"
        assert list(got.separators) == list(want.separators)
        shown = {}  # one rendering per separator object; both sets stay alive

        def text(sep):
            if id(sep) not in shown:
                shown[id(sep)] = _sep_text(sep)
            return shown[id(sep)]

        assert ([text(sep) for sep in got.separators.values()]
                == [text(sep) for sep in want.separators.values()])
        by_id = {id(sep) for sep in got.separators.values()}
        assert len(by_id) == len({id(sep) for sep in want.separators.values()}) == distinct
        # pairs with the same (padding length, modulus) share one object, and
        # pairs with different ones do not
        owner = {}
        for key, sep in got.separators.items():
            assert owner.setdefault(used[key], id(sep)) == id(sep), key
        assert len(owner) == distinct

    @pytest.mark.parametrize("k, digest", [
        ((2, 3, 5, 7), "7fa952106cc0b42a7e187be38146c92a389458e003a2f58a90842ef320312a86"),
        ((3, 4, 5, 7), "ef0f7dcb15836a6f9557901f5b45a923872daa2dd97f6a05d0443a16b3b26e89")])
    def test_rendered_document_is_pinned(self, k, digest):
        text = render_fooling_horizontal(lemma34_horizontal_fooling(k))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestMisplacedSeparatorKeys:
    """A key that is not (i, j) with 0 <= i < j < n is read by no pair and
    written as a line no parser takes: both certifiers refuse it."""

    @pytest.mark.parametrize("key", [(1, 0), (0, 2), (0, 0), (-1, 1), (0, 1, 2), "01",
                                     (0.0, 1.0), (False, True)])
    def test_certifiers_refuse_it(self, key):
        _, pred = gen_lemma34((2, 3))
        ctx = Context(Tree("x"))
        fv = FoolingSetVertical([leaf("b"), word_node("a", "b")], {key: ctx})
        fh = FoolingSetHorizontal([(leaf("b"),), ()], "a", {key: (ctx, ())})
        for certify, fs in ((certify_vertical_bound, fv), (certify_horizontal_bound, fh)):
            with pytest.raises(UtaError) as err:
                certify(pred, fs)
            assert not isinstance(err.value, SeparationError)
            assert f"separator key {key!r} needs indices 0 <= i < j < 2" in str(err.value)


@pytest.mark.parametrize("kind, key", [
    ("non-tuple", "01"), ("non-tuple", 7), ("non-tuple", frozenset({0, 1})),
    ("wrong length", (0, 1, 2)), ("wrong length", (1,)), ("wrong length", ()),
    ("bool", (False, 1)), ("bool", (0, True)), ("negative", (-1, 1)), ("negative", (-2, -1)),
    ("i >= j", (1, 0)), ("i >= j", (2, 2)), ("j >= n", (0, 5)), ("j >= n", (5, 6)),
    ("non-int", (0.0, 1)), ("non-int", (0, "1")), ("non-int", (None, 1))])
def test_check_keys_raises_what_the_loop_raises(kind, key):
    """Each bad key among valid ones, first, in the middle or last: the
    check raises the error the one-key-at-a-time loop raises, for a caller's
    dict (UtaError) and a parsed document's (with its line; a parsed key is
    always a pair of ints, so the loop's own IndexError or TypeError on
    other keys is kept too)."""
    valid = [(i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) != key]
    for at in (0, len(valid) // 2, len(valid)):
        keys = valid[:at] + [key] + valid[at:]
        seps = dict.fromkeys(keys, "sep")
        for lines in (None, {k: no for no, k in enumerate(keys, start=3)}):
            got = []
            for check in (_check_keys, check_keys_by_loop):
                with pytest.raises(Exception) as err:
                    check(seps, 5, lines)
                got.append((type(err.value), str(err.value)))
            assert got[0] == got[1]
            if lines is None or kind in ("negative", "i >= j", "j >= n"):
                assert got[0][0] is (UtaError if lines is None else DocumentError)
    for seps in ({}, dict.fromkeys(valid)):
        assert _check_keys(seps, 5) is check_keys_by_loop(seps, 5) is None


def _counting(pred):
    """``pred`` with a call counter, read from the returned list."""
    calls = [0]

    def decide(t):
        calls[0] += 1
        return pred(t)

    return LangPredicate(pred.alphabet, decide, pred.description), calls


class TestOneSidePerSeparator:
    def test_each_member_and_separator_decided_once(self):
        auto, _ = gen_lemma34((2, 3, 5, 7))
        by_automaton = LangPredicate(auto.alphabet, lambda t: accepts(auto, t), "automaton")
        fs = lemma34_horizontal_fooling((2, 3, 5, 7))
        round_trip = parse_fooling_set(render_fooling_horizontal(fs), auto.alphabet)
        for given in (fs, round_trip):
            pred, calls = _counting(by_automaton)
            assert certify_horizontal_bound(pred, given) == 209
            assert calls[0] == 2834

    def test_vertical_separators_shared_per_level(self):
        fs = lemma34_vertical_fooling((2, 3, 5, 7))
        assert len(fs.separators) == 10
        assert len({id(c) for c in fs.separators.values()}) == 4

    def test_equal_but_distinct_separators_certify(self):
        _, pred = gen_lemma34((2, 3))
        fs = lemma34_horizontal_fooling((2, 3))
        copies = {key: (Context(ctx.skeleton), tuple(padding))
                  for key, (ctx, padding) in fs.separators.items()}
        assert certify_horizontal_bound(pred, FoolingSetHorizontal(fs.tuples, "a", copies)) == 5
        fv = lemma34_vertical_fooling((2, 3))
        copies = {key: Context(ctx.skeleton) for key, ctx in fv.separators.items()}
        assert certify_vertical_bound(pred, FoolingSetVertical(fv.trees, copies)) == 2

    def test_failing_supplied_horizontal_separator_is_refuted(self):
        _, pred = gen_lemma34((2, 3))
        fs = lemma34_horizontal_fooling((2, 3))
        fs.separators[(0, 2)] = fs.separators[(0, 1)]  # 0 and 2 b-leaves agree mod 2
        with pytest.raises(SeparationError) as err:
            certify_horizontal_bound(pred, fs)
        assert err.value.pair == (0, 2) and not err.value.unknown

    def test_failed_horizontal_search_reports_unknown(self):
        flat = LangPredicate(frozenset("ab"), lambda t: True, "everything")
        fs = FoolingSetHorizontal([(leaf("a"),), (leaf("b"),)], "a")
        with pytest.raises(SeparationError) as err:
            certify_horizontal_bound(flat, fs)
        assert err.value.pair == (0, 1) and err.value.unknown


class TestSharedSearchCandidates:
    @pytest.fixture
    def enumerations(self, monkeypatch):
        calls = [0]
        real = witnesses.iter_trees

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(witnesses, "iter_trees", counted)
        return calls

    def test_one_enumeration_per_certification(self, enumerations):
        _, pred = gen_lemma34((2, 3, 5))
        stripped = FoolingSetVertical(lemma34_vertical_fooling((2, 3, 5)).trees)
        for certifications in (1, 2):
            assert certify_vertical_bound(pred, stripped) == 3
            assert enumerations[0] == certifications
        fs = lemma34_horizontal_fooling((2, 3))
        for key in ((0, 1), (1, 2), (2, 5)):
            del fs.separators[key]
        assert certify_horizontal_bound(pred, fs) == 5
        assert enumerations[0] == 3

    def test_no_enumeration_when_every_pair_is_supplied(self, enumerations):
        _, pred = gen_lemma34((2, 3))
        assert certify_horizontal_bound(pred, lemma34_horizontal_fooling((2, 3))) == 5
        assert enumerations[0] == 0


# --- the one pass per separator against the per-pair loop -------------------

def _stratified(fs, rng, size=24):
    """A bench-style subset of a horizontal set: one tuple per stratum."""
    n = len(fs.tuples)
    idx = [rng.randrange(j * n // size, (j + 1) * n // size) for j in range(size)]
    seps = {(i, j): fs.separators[idx[i], idx[j]] for i, j in combinations(range(size), 2)}
    return FoolingSetHorizontal([fs.tuples[i] for i in idx], fs.symbol, seps)


def _shuffled_vertical(fs, rng):
    """Some members of a vertical set in a random order, one of them
    perhaps twice (a pair no context separates, left to the search)."""
    idx = rng.sample(range(len(fs.trees)), rng.randint(2, len(fs.trees)))
    if rng.random() < 0.25:
        idx.insert(rng.randrange(len(idx) + 1), rng.choice(idx))
    seps = {(i, j): fs.separators[min(idx[i], idx[j]), max(idx[i], idx[j])]
            for i, j in combinations(range(len(idx)), 2) if idx[i] != idx[j]}
    return FoolingSetVertical([fs.trees[i] for i in idx], seps)


class _Family:
    """Fooling sets of one kind with their oracle and automaton, and the
    forms a differential case takes."""

    def __init__(self, k, vertical):
        self.auto, self.oracle = gen_lemma34(k)
        self.vertical = vertical
        if vertical:
            self.certify, self.reference = certify_vertical_bound, certify_vertical_by_pair
            self.fresh = Context(Tree("x"))
        else:
            self.certify, self.reference = certify_horizontal_bound, certify_horizontal_by_pair
            self.fresh = (Context(Tree("x")), ())

    def members(self, fs):
        return fs.trees if self.vertical else fs.tuples

    def rebuilt(self, fs, seps):
        if self.vertical:
            return FoolingSetVertical(fs.trees, seps)
        return FoolingSetHorizontal(fs.tuples, fs.symbol, seps)

    def separates(self, fs, key, sep):
        members = [self.members(fs)[k] for k in key]
        two = (FoolingSetVertical(members, {(0, 1): sep}) if self.vertical
               else FoolingSetHorizontal(members, fs.symbol, {(0, 1): sep}))
        try:
            return self.reference(self.oracle, two) == 1
        except SeparationError:
            return False

    def swapped(self, fs, rng):
        """One separator traded, on all its pairs, for one that does not
        separate one of them, which takes the first one's pairs in turn."""
        seps = dict(fs.separators)
        key = rng.choice(list(seps))
        s = seps[key]
        others = list({id(v): v for v in seps.values() if v is not s}.values()) + [self.fresh]
        rng.shuffle(others)
        t = next((v for v in others if not self.separates(fs, key, v)), others[0])
        return self.rebuilt(fs, {k: t if v is s else s if v is t else v for k, v in seps.items()})

    def dropped(self, fs, rng):
        """Some separators left out, so the search runs on their pairs.  A
        horizontal pair is left to the search only where its separator is
        among the first few candidates, so the search ends soon."""
        seps = dict(fs.separators)
        if self.vertical:
            gone = [k for k in seps if rng.random() < 0.4]
        else:
            cheap = [k for k, (ctx, pad) in seps.items() if ctx.skeleton.depth() <= 2 and len(pad) <= 2]
            gone = rng.sample(cheap, min(len(cheap), rng.randint(1, 4)))
        for k in gone:
            del seps[k]
        return self.rebuilt(fs, seps)

    def out_of_range(self, fs, rng):
        n = len(self.members(fs))
        i = rng.randrange(n)
        key = rng.choice([(i, n + rng.randrange(3)), (-1, i), (i, i), (i + 1, i)])
        seps = dict(fs.separators)
        seps[key] = next(iter(seps.values()), self.fresh)
        return self.rebuilt(fs, seps)

    def forms(self, fs, rng):
        swapped = self.swapped(fs, rng) if fs.separators else fs
        return {"as built": fs, "swapped": swapped, "dropped": self.dropped(fs, rng),
                "swapped and dropped": self.dropped(swapped, rng),
                "out-of-range key": self.out_of_range(fs, rng)}


_VERTICAL_MODULI = ((2, 3), (2, 5), (2, 3, 5), (3, 4, 5), (2, 3, 5, 7), (3, 4, 5, 7))

# (moduli, fooling sets, vertical?) by family, drawn from a seeded rng: 304 sets
_FAMILIES = {
    "lemma 3.4 (2,3,5,7) subsets": lambda rng: [((2, 3, 5, 7), [
        _stratified(lemma34_horizontal_fooling((2, 3, 5, 7)), rng) for _ in range(100)], False)],
    "lemma 3.4 (3,4,5,7) subsets": lambda rng: [((3, 4, 5, 7), [
        _stratified(lemma34_horizontal_fooling((3, 4, 5, 7)), rng) for _ in range(100)], False)],
    # each full set five times, each time in forms drawn apart
    "lemma 3.4 (2,3) and (2,3,5) full sets": lambda rng: [
        (k, [lemma34_horizontal_fooling(k)] * 5, False) for k in ((2, 3), (2, 3, 5))],
    "lemma 3.4 vertical sets": lambda rng: [
        (k, [_shuffled_vertical(lemma34_vertical_fooling(k), rng) for _ in range(17)], True)
        for k in _VERTICAL_MODULI],
}


def _outcome(certify, pred, fs):
    try:
        return certify(pred, fs)
    except UtaError as err:
        return type(err), str(err), getattr(err, "pair", None), getattr(err, "unknown", None)


def _sides(seps, stop=None):
    """The (member, separator object) sides of the supplied pairs the
    per-pair loop reaches before it raises at ``stop``, a (pair, unknown
    flag); of every supplied pair if ``stop`` is None."""
    reached = [key for key in seps
               if stop is None or key < stop[0] or (key == stop[0] and not stop[1])]
    return len({(k, id(seps[key])) for key in reached for k in key})


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_one_pass_per_separator_agrees_with_the_per_pair_loop(family):
    """Each set in five forms, through the oracle and through the automaton:
    the same bound, or the same error, message, pair and unknown flag, as
    the per-pair loop; and exactly the predicate calls of the per-pair loop
    once every supplied (member, separator object) side is decided once
    (the search makes the same calls in both)."""
    rng = random.Random(family)
    families = _FAMILIES[family](rng)
    compared = 0
    for k, sets, vertical in families:
        fam = _Family(k, vertical)
        by_automaton = LangPredicate(fam.auto.alphabet, lambda t: accepts(fam.auto, t), "automaton")
        for fs in sets:
            for form, given in fam.forms(fs, rng).items():
                for base in (fam.oracle, by_automaton):
                    pred, calls = _counting(base)
                    ref_pred, ref_calls = _counting(base)
                    got = _outcome(fam.certify, pred, given)
                    want = _outcome(fam.reference, ref_pred, given)
                    assert got == want, (family, form)
                    if type(want) is tuple and want[0] is not SeparationError:
                        assert calls[0] == ref_calls[0] == 0  # a bad key, refused first
                        continue
                    stop = (want[2], want[3]) if type(want) is tuple else None
                    search = ref_calls[0] - _sides(given.separators, stop)
                    assert calls[0] == _sides(given.separators) + search, (family, form)
                    compared += 1
    assert compared == 2 * 4 * sum(len(sets) for _, sets, _ in families)
