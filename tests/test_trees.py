from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uta import trees
from uta import (Context, EnumerationBounds, Tree, TreeSyntaxError, UnknownSymbolError,
                 iter_trees, leaf, nest, node, parse_context, parse_tree, render_tree,
                 substitute, word_node)

ABCD = frozenset("abcd")


def test_parse_basic():
    t = parse_tree("a(b,c(d))", ABCD)
    assert t == node("a", leaf("b"), node("c", leaf("d")))


def test_parse_leaf():
    assert parse_tree("b", ABCD) == leaf("b")


def test_parse_whitespace():
    assert parse_tree(" a ( b , c ) ", ABCD) == node("a", leaf("b"), leaf("c"))


def test_parse_trailing_comma_is_syntax_error():
    with pytest.raises(TreeSyntaxError) as err:
        parse_tree("a(b,)", ABCD)
    assert err.value.position == 4


def test_parse_unknown_symbol_named():
    with pytest.raises(UnknownSymbolError) as err:
        parse_tree("a(zz)", ABCD)
    assert err.value.symbol == "zz"


def test_variable_rejected_in_plain_trees():
    with pytest.raises(UnknownSymbolError):
        parse_tree("a(x)", ABCD)


def test_render_examples():
    assert render_tree(leaf("b")) == "b"
    assert render_tree(nest("a", 2, leaf("b"))) == "a(a(b))"
    assert render_tree(node("a", leaf("b"), leaf("b"), leaf("b"))) == "a(b,b,b)"
    assert render_tree(word_node("a", "bb1")) == "a(b,b,1)"


def test_repr_is_the_rendering():
    assert repr(leaf("b")) == "Tree('b')"
    assert repr(node("a", leaf("b"), nest("c", 2, leaf("d")))) == "Tree('a(b,c(c(d)))')"
    assert repr(nest("a", 250, leaf("b"))) == f"Tree('{'a(' * 250}b{')' * 250}')"


def test_context_validation():
    parse_context("a(x)", ABCD)
    with pytest.raises(TreeSyntaxError):
        parse_context("a(b)", ABCD)  # no variable
    with pytest.raises(TreeSyntaxError):
        parse_context("a(x,x)", ABCD)  # two variables
    with pytest.raises(TreeSyntaxError):
        parse_context("x(a)", ABCD)  # variable with children


def test_substitute_examples():
    assert substitute(parse_context("x", ABCD), leaf("b")) == leaf("b")
    got = substitute(parse_context("a(x)", ABCD), parse_tree("c(d)", ABCD))
    assert got == parse_tree("a(c(d))", ABCD)
    got = substitute(parse_context("a(b,x,b)", ABCD),
                     parse_tree("a(b)", ABCD))
    assert got == parse_tree("a(b,a(b),b)", ABCD)


def enum(alphabet, depth, width, count):
    return list(iter_trees(alphabet, EnumerationBounds(depth, width, count)))


def test_enumeration_counts():
    assert [render_tree(t) for t in enum({"a"}, 2, 2, 100)] == ["a", "a(a)", "a(a,a)"]
    assert [render_tree(t) for t in enum({"a"}, 1, 5, 10)] == ["a"]
    assert [render_tree(t) for t in enum({"a", "b"}, 1, 5, 10)] == ["a", "b"]


def test_enumeration_cap_signal_carries_partial():
    # the capped prefix agrees with the untruncated enumeration
    assert enum({"a", "b"}, 3, 3, 7) == enum({"a", "b"}, 3, 3, 10**6)[:7]


def test_enumeration_cap_draws_exactly_the_cap(monkeypatch):
    full = enum({"a", "b"}, 3, 3, 10**6)
    drawn = []
    stream = trees._in_render_order

    def spy(*args):
        for t in stream(*args):
            drawn.append(t)
            yield t

    monkeypatch.setattr(trees, "_in_render_order", spy)
    # 2, 6 and 22 trees of up to 1, 2 and 3 nodes; 86 of up to 4
    for cap in (22, 6, 23, 50):
        drawn.clear()
        assert enum({"a", "b"}, 3, 3, cap) == full[:cap]
        # the stream is not drawn past the cap
        assert drawn == full[:cap]
    # the whole space under a cap that does not cut it
    assert len(enum({"a", "b"}, 3, 2, 10**6)) == 422


def test_enumeration_rejects_symbols_outside_the_identifier_set():
    # "a!(a!)" renders before "a(a)", out of label order
    with pytest.raises(ValueError, match="'a!'"):
        list(iter_trees({"a", "a!"}, EnumerationBounds(2, 1, 10)))


def test_enumeration_is_duplicate_free_and_ordered():
    ts = enum({"a", "b"}, 3, 2, 10**6)
    rendered = [render_tree(t) for t in ts]
    assert len(set(rendered)) == len(rendered)
    counts = [t.node_count() for t in ts]
    assert counts == sorted(counts)
    for prev, cur in zip(ts, ts[1:]):
        if prev.node_count() == cur.node_count():
            assert render_tree(prev) < render_tree(cur)
    assert all(t.depth() <= 3 for t in ts)
    assert all(len(n.children) <= 2 for t in ts for n in _walk(t))


def _naive_trees(symbols, depth, width, max_nodes):
    """Every tree of depth <= depth, arity <= width and at most max_nodes
    nodes, by plain recursion."""
    if depth < 1 or max_nodes < 1:
        return []
    kids = sorted(_naive_trees(symbols, depth - 1, width, max_nodes - 1),
                  key=Tree.node_count)

    def seqs(budget, slots):
        yield ()
        if slots:
            for k in kids:
                if k.node_count() > budget:
                    break
                for rest in seqs(budget - k.node_count(), slots - 1):
                    yield (k,) + rest

    return [Tree(s, seq) for s in symbols for seq in seqs(max_nodes - 1, width)]


@lru_cache(maxsize=None)
def _reference(alphabet, depth, width, cap):
    """The first cap trees by (node count, rendering), out of the naive
    enumeration grown one node at a time until it holds cap trees or stops
    growing."""
    n, trees = 0, []
    while True:
        n += 1
        more = _naive_trees(sorted(alphabet), depth, width, n)
        if len(more) == len(trees):
            break
        trees = more
        if len(trees) >= cap:
            break
    trees.sort(key=lambda t: (t.node_count(), render_tree(t)))
    return trees[:cap]


ORACLE_ALPHABETS = (frozenset({"a", "b"}), frozenset({"0", "1", "a", "b"}),
                    frozenset({"a", "ab", "x"}), frozenset({"A", "_", "a", "b0", "0"}))
# (depth, width, cap); most caps fall inside a level
ORACLE_BOUNDS = ((3, 0, 1), (3, 0, 2), (3, 0, 50), (4, 1, 5), (4, 1, 13), (4, 1, 1000),
                 (3, 5, 40), (3, 5, 333), (4, 5, 700), (4, 5, 2000))


@pytest.mark.parametrize("alphabet", ORACLE_ALPHABETS, ids=lambda a: ",".join(sorted(a)))
@pytest.mark.parametrize("bounds", ORACLE_BOUNDS, ids=str)
def test_iter_trees_matches_naive_reference(alphabet, bounds):
    depth, width, cap = bounds
    # one tree past the cap, shared with the mid-level check below
    want = _reference(alphabet, depth, width, cap + 1)[:cap]
    assert list(iter_trees(alphabet, EnumerationBounds(*bounds))) == want


@pytest.mark.parametrize("alphabet", ORACLE_ALPHABETS, ids=lambda a: ",".join(sorted(a)))
def test_oracle_caps_cut_mid_level_for_every_width(alphabet):
    cut_widths = set()
    for depth, width, cap in ORACLE_BOUNDS:
        longer = _reference(alphabet, depth, width, cap + 1)
        if len(longer) > cap and longer[cap].node_count() == longer[cap - 1].node_count():
            cut_widths.add(width)
    assert cut_widths == {0, 1, 5}


def test_enumerated_trees_share_their_children():
    ts = list(iter_trees({"a", "b"}, EnumerationBounds(4, 3, 3000)))
    objects = {}
    for t in ts:
        for c in t.children:
            objects.setdefault(render_tree(c), set()).add(id(c))
    # every tree in ts is alive, so no id was reused
    assert all(len(ids) == 1 for ids in objects.values())
    assert len(objects) < sum(len(t.children) for t in ts) / 10


def _walk(t):
    yield t
    for c in t.children:
        yield from _walk(c)


def _tree_strategy():
    return st.recursive(
        st.sampled_from("abcd").map(leaf),
        lambda kids: st.builds(
            Tree, st.sampled_from("abcd"),
            st.lists(kids, min_size=1, max_size=3).map(tuple)),
        max_leaves=12)


@settings(max_examples=150)
@given(_tree_strategy())
def test_parse_render_round_trip(t):
    assert parse_tree(render_tree(t), ABCD) == t


def _render_recursively(t):
    if not t.children:
        return t.label
    return t.label + "(" + ",".join(_render_recursively(c) for c in t.children) + ")"


@settings(max_examples=150)
@given(_tree_strategy())
def test_render_matches_the_recursive_definition(t):
    assert render_tree(t) == _render_recursively(t)


def test_deep_context_parses():
    deep = 100_000
    ctx = parse_context("a(" * deep + "b,x" + ")" * deep, ABCD)
    assert ctx.skeleton.depth() == deep + 1
    with pytest.raises(TreeSyntaxError):
        parse_context("a(" * deep + "b,x,x" + ")" * deep, ABCD)


@settings(max_examples=100)
@given(_tree_strategy(), _tree_strategy())
def test_substitution_node_count(skeleton, plug):
    ctx = Context(node("c", skeleton, leaf("x")))
    result = substitute(ctx, plug)
    assert result.node_count() == ctx.skeleton.node_count() - 1 + plug.node_count()


def _substitute_recursively(c, t):
    def go(s):
        return t if s.label == "x" else Tree(s.label, tuple(go(ch) for ch in s.children))
    return go(c.skeleton)


def _with_leaf_replaced(t, target):
    if t is target:
        return leaf("x")
    return Tree(t.label, tuple(_with_leaf_replaced(c, target) for c in t.children))


@settings(max_examples=100)
@given(_tree_strategy(), _tree_strategy())
def test_substitute_matches_the_recursive_definition(skeleton, plug):
    for target in [s for s in _walk(skeleton) if not s.children]:
        ctx = Context(_with_leaf_replaced(skeleton, target))
        assert substitute(ctx, plug) == _substitute_recursively(ctx, plug)


def test_substitute_into_a_deep_context():
    deep = 100_000
    ctx = parse_context("a(" * deep + "b,x,c" + ")" * deep, ABCD)
    got = substitute(ctx, parse_tree("d(b)", ABCD))
    assert render_tree(got) == "a(" * deep + "b,d(b),c" + ")" * deep


def test_size_measures_hold_on_a_deep_chain():
    deep = 100_000
    chain = nest("a", deep - 1, node("b", leaf("c"), nest("d", 2, leaf("e"))))
    assert chain.depth() == deep + 3
    assert chain.node_count() == deep + 4
    assert node("a", leaf("b"), nest("c", 3, leaf("d")), leaf("e")).depth() == 5


def test_equality_and_hash_on_deep_chains():
    deep = 100_000
    chain, twin = nest("a", deep, leaf("b")), nest("a", deep, leaf("b"))
    assert chain == twin and not chain != twin
    assert hash(chain) == hash(twin)
    assert {chain: 1}[twin] == 1
    assert chain != nest("a", deep, leaf("c"))  # unequal at the bottom only
    assert chain != nest("a", deep, node("b", leaf("b")))
    assert chain != nest("a", deep - 1, leaf("b"))


@settings(max_examples=150)
@given(_tree_strategy(), _tree_strategy())
def test_equality_and_hash_follow_the_structure(s, t):
    assert (s == t) == (render_tree(s) == render_tree(t))
    copy = parse_tree(render_tree(s), ABCD)
    assert copy == s and hash(copy) == hash(s)
