"""Lower-bound witness families and fooling-set certifiers.

Each generator returns an automaton together with an independent membership
predicate that decides the target language directly from tree shape, so the
construction can be checked against ground truth rather than trusted.

The certifiers implement two lower-bound arguments:

* vertical: a set R of trees pairwise separated by contexts certifies that
  any strongly deterministic automaton, and any semantically deterministic
  automaton with NFA transitions, needs at least |R| - 1 vertical states;
* horizontal: a set S of child tuples for a fixed symbol, pairwise separated
  by a context plus trailing padding, certifies that the per-symbol machine
  of any strongly deterministic automaton needs at least |S| - 1 states.

Both run one pair loop, ``_certify``; a direction only says how a member is
plugged into a separator and which separators a search tries.  Separators
may be supplied explicitly or discovered by bounded search; a failed search
is reported as unknown, never as a refutation.  A supplied separator is
usually shared by many pairs, so the loop makes one pass per separator
object, deciding the predicate once per member it is supplied for; the
search enumerates its candidates once per certification.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Callable
from copy import copy
from itertools import accumulate, chain, combinations, tee

from .automata import DTA_DFA, NTA_DFA, TreeAutomaton
from .errors import DocumentError, SeparationError, TreeSyntaxError, UtaError
from .strings import DFA
from .trees import (Context, EnumerationBounds, Tree, _Record, _render_chunks, iter_trees,
                    leaf, nest, substitute, word_node)


class LangPredicate(_Record):
    """Decidable membership oracle, independent of any automaton."""

    __slots__ = ("alphabet", "decide", "description")

    def __init__(self, alphabet: frozenset, decide: Callable[[Tree], bool], description: str):
        self._init(alphabet, decide, description)

    def __call__(self, t: Tree) -> bool:
        return self.decide(t)


class FoolingSetVertical(_Record):
    """Trees pairwise separated by contexts; keys are (i, j) with i < j."""

    __slots__ = ("trees", "separators")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, trees: list, separators: dict | None = None):
        self._init(trees, {} if separators is None else separators)


class FoolingSetHorizontal(_Record):
    """Child tuples for one symbol, pairwise separated by (context, padding)."""

    __slots__ = ("tuples", "symbol", "separators")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, tuples: list, symbol: str, separators: dict | None = None):
        self._init(tuples, symbol, {} if separators is None else separators)


LEMMA34_ALPHABET = frozenset({"a", "b", "0", "1"})


def _chain_split(t: Tree):
    """Decompose a chain a^i(w): returns (i, child labels of the bottom
    a-node) or None if the tree is not of that shape."""
    if t.label != "a":
        return None
    depth = 1
    node = t
    while len(node.children) == 1 and node.children[0].label == "a":
        node = node.children[0]
        depth += 1
    labels = [c.label for c in node.children if not c.children and c.label != "a"]
    return (depth, labels) if len(labels) == len(node.children) else None


def _moduli(k) -> tuple:
    """The lemma 3.4 moduli as ints: strictly increasing, pairwise coprime, >= 2."""
    k = tuple(int(v) for v in k)
    if not k:
        raise UtaError("need at least one modulus")
    if any(v < 2 for v in k) or any(k[i] >= k[i + 1] for i in range(len(k) - 1)):
        raise UtaError(f"moduli must be >= 2 and strictly increasing: {k}")
    for i, j in combinations(k, 2):
        if math.gcd(i, j) != 1:
            raise UtaError(f"moduli {i} and {j} are not coprime")
    return k


def gen_lemma34(k) -> tuple[TreeAutomaton, LangPredicate]:
    """Weakly deterministic automaton for the union over i of chains of i
    a-nodes whose bottom children spell (b^{k_i})* followed by the binary
    numeral of i, plus the matching membership predicate.

    Requires strictly increasing, pairwise coprime moduli k_i >= 2.  State
    q_i accepts the bottom word for level i or the single successor state
    q_{i+1}; chains then resolve level by level up to the root.
    """
    k = _moduli(k)
    m = len(k)
    states = [f"q{i}" for i in range(1, m + 1)]
    ha = frozenset(states) | LEMMA34_ALPHABET
    horizontal = {}
    for idx, ki in enumerate(k, start=1):
        y = format(idx, "b")
        sts = ["s0"] + [f"c{j}" for j in range(1, ki + 1)]
        trans = [("s0", "b", "c1")]
        trans += [(f"c{j}", "b", f"c{j + 1}") for j in range(1, ki)]
        trans.append((f"c{ki}", "b", "c1"))
        # numeral path, shared by the two states where the b-count is 0 mod k_i
        prev = None
        for pos, bit in enumerate(y, start=1):
            cur = f"y{pos}"
            sts.append(cur)
            if pos == 1:
                trans.append(("s0", bit, cur))
                trans.append((f"c{ki}", bit, cur))
            else:
                trans.append((prev, bit, cur))
            prev = cur
        finals = {prev}
        # successor arm; kept (inert) for the last level so every level's
        # machine has exactly k_i + floor(log2 i) + 3 states
        sts.append("arm")
        if idx < m:
            trans.append(("s0", f"q{idx + 1}", "arm"))
            finals.add("arm")
        horizontal[(f"q{idx}", "a")] = DFA(sts, ha, "s0", finals, trans)

    auto = TreeAutomaton(DTA_DFA, LEMMA34_ALPHABET, states, {"q1"},
                         horizontal=horizontal, leaf_symbols=LEMMA34_ALPHABET)

    def decide(t: Tree) -> bool:
        split = _chain_split(t)
        if split is None:
            return False
        i, labels = split
        if not 1 <= i <= m:
            return False
        word = "".join(labels)
        y = format(i, "b")
        if not word.endswith(y):
            return False
        head = word[: len(word) - len(y)]
        return set(head) <= {"b"} and len(head) % k[i - 1] == 0

    pred = LangPredicate(
        LEMMA34_ALPHABET, decide,
        f"chains of i a-nodes over (b^{{k_i}})* then the binary numeral of i, k={k}")
    return auto, pred


def first_primes(n: int) -> list[int]:
    primes: list[int] = []
    c = 2
    while len(primes) < n:
        if all(c % p for p in primes):
            primes.append(c)
        c += 1
    return primes


THM41_ALPHABET = frozenset({"a", "b"})


def gen_thm41(n: int) -> tuple[TreeAutomaton, LangPredicate]:
    """Nondeterministic automaton (DFA transitions) for the chain language
    a^i(b^k) where, for some j, k is divisible by the j-th prime and the
    chain length i is congruent to j modulo n; plus the predicate.

    At the bottom a-node the automaton guesses j by accepting (b^{p_j})*
    in the machine of state q_{1-j mod n}; every further level reads the
    single child state q_{s-1} into q_s, so the root reaches q_1 exactly
    when i is congruent to j.  Each per-level machine spends p_j states on
    the divisibility cycle plus an entry state and a chain-reading state.
    """
    n = int(n)
    if n < 1:
        raise UtaError("need n >= 1")
    primes = first_primes(n)
    states = [f"q{s}" for s in range(1, n + 1)]
    ha = frozenset(states) | {"b"}
    horizontal = {}
    for s in range(1, n + 1):
        j = ((1 - s) % n) + 1
        p = primes[j - 1]
        prev = f"q{((s - 2) % n) + 1}"
        sts = ["s0"] + [f"c{i}" for i in range(1, p + 1)] + ["arm"]
        trans = [("s0", "b", "c1")]
        trans += [(f"c{i}", "b", f"c{i + 1}") for i in range(1, p)]
        trans.append((f"c{p}", "b", "c1"))
        trans.append(("s0", prev, "arm"))
        horizontal[(f"q{s}", "a")] = DFA(sts, ha, "s0", {"s0", f"c{p}", "arm"}, trans)

    auto = TreeAutomaton(NTA_DFA, THM41_ALPHABET, states, {"q1"},
                         horizontal=horizontal, leaf_symbols={"b"})

    def decide(t: Tree) -> bool:
        split = _chain_split(t)
        if split is None:
            return False
        i, labels = split
        if any(c != "b" for c in labels):
            return False
        j = ((i - 1) % n) + 1
        return len(labels) % primes[j - 1] == 0

    pred = LangPredicate(
        THM41_ALPHABET, decide,
        f"chains a^i(b^k) with k divisible by prime j and i = j mod n, n={n}")
    return auto, pred


def lemma34_vertical_fooling(k) -> FoolingSetVertical:
    """R = the m level-1 witnesses plus a(b); any two members are told apart
    by wrapping in the chain context that completes the shorter level."""
    k = _moduli(k)
    m = len(k)
    trees = [word_node("a", "b" * k[i - 1] + format(i, "b")) for i in range(1, m + 1)]
    trees.append(Tree("a", (leaf("b"),)))
    # one context per level; the a(b) extra sits last, so the smaller index
    # of a pair always names a real level
    contexts = [Context(nest("a", level - 1, Tree("x"))) for level in range(1, m + 1)]
    seps = {(i, j): contexts[i] for i, j in combinations(range(len(trees)), 2)}
    return FoolingSetVertical(trees, seps)


def lemma34_horizontal_fooling(k) -> FoolingSetHorizontal:
    """S = tuples of r b-leaves for r below the product of the moduli; the
    pair (r, s) is separated by padding up to the next multiple of a modulus
    that does not divide s - r, then the matching numeral and chain.  Built
    in bulk: a table ``first[d]`` of the first modulus not dividing each gap
    d, the sum of k_i separators (one per padding length and modulus, shared
    by all its pairs), then one pass over the pairs, row r (pairs (r, s) for
    s > r) read off ``first[1:total - r]``.  Cost: O(prod(k) * len(k)) plus
    one step per pair."""
    k = _moduli(k)
    total = math.prod(k)
    b = leaf("b")
    tuples = [(b,) * r for r in range(total)]
    contexts = [Context(nest("a", i, Tree("x"))) for i in range(len(k))]
    shared = [[(contexts[i], (b,) * gap + tuple(leaf(bit) for bit in format(i + 1, "b")))
               for gap in range(ki)] for i, ki in enumerate(k)]
    first = [next((i for i, ki in enumerate(k) if d % ki), None) for d in range(total)]
    rows = (map([shared[i][-r % ki] for i, ki in enumerate(k)].__getitem__, first[1:total - r])
            for r in range(total))
    seps = dict(zip(combinations(range(total), 2), chain.from_iterable(rows)))
    return FoolingSetHorizontal(tuples, "a", seps)


_SEARCH_BOUNDS = EnumerationBounds(max_depth=3, max_width=3, max_count=2000)


def _candidate_contexts(alphabet):
    for t in iter_trees(set(alphabet) | {"x"}, _SEARCH_BOUNDS):
        try:
            yield Context(t)
        except TreeSyntaxError:
            continue


def certify_vertical_bound(pred: LangPredicate, fs: FoolingSetVertical) -> int:
    """Verify every pair of fooling trees is separated by some context and
    return |R| - 1, a lower bound on the vertical states of any strongly
    deterministic automaton (or any semantically deterministic automaton
    with NFA transitions) for the language."""
    if not fs.trees:
        raise UtaError("a vertical fooling set needs at least one tree")
    return _certify(pred, fs.trees, fs.separators, lambda t, ctx: substitute(ctx, t),
                    _candidate_contexts(pred.alphabet), "trees")


def certify_horizontal_bound(pred: LangPredicate, fs: FoolingSetHorizontal) -> int:
    """Verify every pair of child tuples is separated under the fooling
    symbol and return |S| - 1, a lower bound on the size of the per-symbol
    machine of any strongly deterministic automaton for the language.  A
    separator (context, padding) wraps ``symbol(tuple + padding)``."""
    if not fs.tuples:
        raise UtaError("a horizontal fooling set needs at least one tuple")
    leaves = [leaf(s) for s in sorted(pred.alphabet)]
    paddings = [(), *((l,) for l in leaves), *((l1, l2) for l1 in leaves for l2 in leaves)]

    def plug(tup, sep):
        ctx, padding = sep
        return substitute(ctx, Tree(fs.symbol, tuple(tup) + tuple(padding)))

    candidates = ((ctx, padding) for ctx in _candidate_contexts(pred.alphabet)
                  for padding in paddings)
    return _certify(pred, fs.tuples, fs.separators, plug, candidates, "tuples")


def _check_keys(separators, n: int, lines=None):
    """Raise on the first key of ``separators`` that is not a pair of ints
    0 <= i < j < n: no pair loop reads it and no document can hold it.  For
    a parsed document, ``lines`` by key, a DocumentError naming its line."""
    for key in separators:
        if type(key) is tuple and len(key) == 2:
            i, j = key
            if type(i) is int and type(j) is int and 0 <= i < j < n:
                continue
        if lines is not None:
            raise DocumentError(f"separator 'sep {key[0]} {key[1]}' needs indices "
                                f"0 <= i < j < {n}", lines[key])
        raise UtaError(f"separator key {key!r} needs indices 0 <= i < j < {n}")


def _certify(pred, members, separators, plug, candidates, noun) -> int:
    """The one pair loop of both certifiers: members i < j are separated by
    ``separators[(i, j)]`` when supplied, else by some separator of the lazy
    iterable ``candidates``; ``pred(plug(member, sep))`` tells the two apart.

    One pass groups the supplied pairs by separator object; each separator
    then decides the side of each member it is supplied for once, and its
    pairs compare sides by lookup.  The unsupplied pairs are searched in
    (i, j) order up to the least failing supplied pair, each reading the
    candidates, enumerated once, from the start.  The least failing pair in
    (i, j) order is raised.  Returns len(members) - 1."""
    n = len(members)
    _check_keys(separators, n)
    groups = defaultdict(list)  # id(sep) -> its pairs; ``separators`` keeps each id unique
    for key, sep in separators.items():
        groups[id(sep)].append(key)
    failing = []
    for keys in groups.values():
        sep = separators[keys[0]]
        side = {k: pred(plug(members[k], sep)) for k in sorted(set(chain.from_iterable(keys)))}
        failing += [key for key in keys if side[key[0]] == side[key[1]]]
    least = min(failing, default=None)
    if len(separators) < n * (n - 1) // 2:
        shared = tee(candidates, 1)[0]
        for pair in combinations(range(n), 2):
            if pair == least:
                break
            if pair in separators:
                continue
            i, j = pair
            if all(pred(plug(members[i], c)) == pred(plug(members[j], c))
                   for c in copy(shared)):
                raise SeparationError(
                    f"no separator found for {noun} {i} and {j} within search "
                    f"bounds; separation unknown", pair, unknown=True)
    if least is not None:
        raise SeparationError(f"context {_shown(separators[least])} does not separate "
                              f"{noun} {least[0]} and {least[1]}", least)
    return n - 1


def _shown(sep) -> str:
    """A supplied separator's text cut to 60 characters: one short line even
    for a deep separator, whose context is rendered only that far."""
    ctx = sep if isinstance(sep, Context) else sep[0]
    shown = next((s for s in accumulate(_render_chunks(ctx.skeleton)) if len(s) > 60), None)
    if shown is None:  # the context is short: show the separator whole
        shown = str(sep) if ctx is sep else f"{ctx} with padding {[str(p) for p in sep[1]]}"
    return shown if len(shown) <= 60 else shown[:57] + "..."
