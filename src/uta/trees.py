"""Labeled ordered unranked trees, contexts, term syntax and enumeration.

Trees are immutable values; sibling order is significant and equality is
structural.  Symbols are identifiers matching ``[A-Za-z0-9_]+``; the symbol
``x`` is reserved for the variable leaf of a context and is rejected inside
plain trees.  ``iter_trees``, the one enumeration entry point, yields the trees
within depth and width bounds by node count, then by rendering, up to a cap.
"""

from __future__ import annotations

import heapq
import re
from collections.abc import Iterator
from itertools import chain, count, islice, tee
from operator import attrgetter

from .errors import TreeSyntaxError, UnknownSymbolError

VARIABLE = "x"

SYMBOL_RE = re.compile(r"[A-Za-z0-9_]+")
_TOKEN_RE = re.compile(f"({SYMBOL_RE.pattern})|\\S")


class _Record:
    """Base of the frozen value classes: fields are the ``__slots__``, set in
    ``__init__``; equality, hash, repr and pickling go by their values."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = property(attrgetter(*cls.__slots__))  # a tuple: two or more fields

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")
    __delattr__ = __setattr__

    def __reduce__(self):
        # unpickle through __init__, since __setattr__ refuses the fields
        return type(self), self._values


class Tree(_Record):
    __slots__ = ("label", "children")

    def __init__(self, label: str, children: tuple[Tree, ...] = ()):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "children", children)

    def node_count(self) -> int:
        count, stack = 0, [self]
        while stack:
            count += 1
            stack.extend(stack.pop().children)
        return count

    def depth(self) -> int:
        deepest, stack = 0, [(self, 1)]
        while stack:
            t, d = stack.pop()
            deepest = max(deepest, d)
            stack.extend((c, d + 1) for c in t.children)
        return deepest

    def __eq__(self, other):
        if other.__class__ is not Tree:
            return NotImplemented
        pairs = [(self, other)]
        for a, b in pairs:
            if a is not b:
                if a.label != b.label or len(a.children) != len(b.children):
                    return False
                pairs += zip(a.children, b.children)
        return True

    def __hash__(self):
        return hash(render_tree(self))  # equal trees render alike

    def __str__(self) -> str:
        return render_tree(self)

    def __repr__(self) -> str:
        return f"Tree({render_tree(self)!r})"


def leaf(label: str) -> Tree:
    return Tree(label)


def node(label: str, *children: Tree) -> Tree:
    return Tree(label, tuple(children))


def nest(label: str, count: int, bottom: Tree) -> Tree:
    """Chain of ``count`` unary label-nodes ending in ``bottom``."""
    t = bottom
    for _ in range(count):
        t = Tree(label, (t,))
    return t


def word_node(label: str, word) -> Tree:
    """A label-node whose children are leaves spelling ``word``."""
    return Tree(label, tuple(Tree(c) for c in word))


class Context:
    """A tree over the alphabet plus one variable leaf ``x``.

    Exactly one leaf carries the variable; the variable never labels an
    internal node.  Both conditions are enforced at construction.
    """

    __slots__ = ("skeleton",)

    def __init__(self, skeleton: Tree):
        holes = _count_variable(skeleton)
        if holes != 1:
            raise TreeSyntaxError(
                f"context must contain exactly one {VARIABLE!r} leaf, found {holes}", 0
            )
        self.skeleton = skeleton

    def __eq__(self, other):
        return isinstance(other, Context) and self.skeleton == other.skeleton

    def __hash__(self):
        return hash(("context", self.skeleton))

    def __str__(self):
        return render_tree(self.skeleton)

    def __repr__(self):
        return f"Context({render_tree(self.skeleton)!r})"


def _count_variable(t: Tree) -> int:
    holes, stack = 0, [t]
    while stack:
        s = stack.pop()
        if s.label == VARIABLE:
            if s.children:
                raise TreeSyntaxError(f"{VARIABLE!r} must label a leaf", 0)
            holes += 1
        stack.extend(s.children)
    return holes


def substitute(c: Context, t: Tree) -> Tree:
    """Replace the unique variable leaf of ``c`` with ``t``.  One explicit-stack
    search maps nodes to parents; the path to the variable is rebuilt from it."""
    up, stack = {}, [c.skeleton]
    while (s := stack.pop()).label != VARIABLE:
        for i, ch in enumerate(s.children):
            up[id(ch)] = s, i
            stack.append(ch)
    while s is not c.skeleton:
        s, i = up[id(s)]
        t = Tree(s.label, s.children[:i] + (t,) + s.children[i + 1:])
    return t


def parse_tree(text: str, alphabet) -> Tree:
    """Parse term syntax ``sym`` or ``sym(t1,...,tn)``; whitespace ignored."""
    return _parse(text, frozenset(alphabet), allow_variable=False)


def parse_context(text: str, alphabet) -> Context:
    """Parse a context; the variable ``x`` must appear as exactly one leaf."""
    return Context(_parse(text, frozenset(alphabet), allow_variable=True))


def _parse(text: str, alphabet: frozenset, allow_variable: bool) -> Tree:
    """Recursive descent over the tokens of ``text`` (symbols and single
    other characters), run on an explicit stack of (symbol, children so
    far) frames, one per open parenthesis, so any depth parses."""
    tokens = _TOKEN_RE.finditer(text)
    stack = []
    while True:
        m = next(tokens, None)
        sym = m and m.group(1)
        if not sym:
            raise TreeSyntaxError("expected a symbol", m.start() if m else len(text))
        if sym not in alphabet if sym != VARIABLE else not allow_variable:
            raise UnknownSymbolError(sym, m.start())
        m = next(tokens, None)
        if m and m.group() == "(":
            stack.append((sym, []))
            continue
        t = Tree(sym)
        while stack:
            stack[-1][1].append(t)
            if m and m.group() == ",":
                break
            if not m or m.group() != ")":
                raise TreeSyntaxError("expected ',' or ')'", m.start() if m else len(text))
            sym, children = stack.pop()
            t = Tree(sym, tuple(children))
            m = next(tokens, None)
        else:
            if m:
                raise TreeSyntaxError("trailing input after tree", m.start())
            return t


def render_tree(t: Tree) -> str:
    """Term syntax, such as ``a(b,c(x))``; a leaf is just its label."""
    return "".join(_render_chunks(t)) if t.children else t.label


def _render_chunks(t: Tree):
    """Term syntax piece by piece, so a caller can stop early.  On a stack of child
    iterators a node writes "," unless a first child, its label, and its children in "()"."""
    stack, comma = [iter((t,))], ""
    while stack:
        for c in stack[-1]:
            if c.children:
                yield f"{comma}{c.label}("
                stack.append(iter(c.children))
                comma = ""
                break
            yield comma + c.label
            comma = ","
        else:
            stack.pop()
            if stack:
                yield ")"
                comma = ","


class EnumerationBounds(_Record):
    __slots__ = ("max_depth", "max_width", "max_count")

    def __init__(self, max_depth: int = 4, max_width: int = 5, max_count: int = 200_000):
        self._init(max_depth, max_width, max_count)
        if max_depth < 1 or max_width < 0 or max_count < 1:
            raise ValueError(f"invalid enumeration bounds {self}")


DEFAULT_BOUNDS = EnumerationBounds()


def iter_trees(alphabet, bounds: EnumerationBounds = DEFAULT_BOUNDS) -> Iterator[Tree]:
    """The first max_count trees within the depth/width bounds, by node count
    then by rendered string, generated in that order; deterministic and
    duplicate-free.  The order rests on every symbol matching ``SYMBOL_RE``;
    any other symbol is a ValueError."""
    symbols = sorted(alphabet)
    bad = next((s for s in symbols if not SYMBOL_RE.fullmatch(s)), None)
    if bad is not None:
        raise ValueError(f"cannot enumerate trees over the symbol {bad!r}")
    yield from islice(_in_render_order(symbols, bounds.max_depth, bounds.max_width),
                      bounds.max_count)


def _in_render_order(symbols: list, depth: int, width: int) -> Iterator[Tree]:
    """Every tree of depth <= depth and arity <= width over the sorted
    ``symbols``, level by level (a level is the trees of n nodes), each level
    in render order.

    Symbol characters sort above "(" < ")" < ",", so a level is ordered label
    by label, and the child sequences whose first children have one size are
    ordered by first child, then by the rest; one merge over that size orders
    them all.  A sequence is carried with its renderings joined by "," and
    closed by ")", so one that ends sorts before one that continues.  The
    root level's sequences are merged as the labels draw them; the lists of
    the levels below, and the sequence lists made from them, are memoized,
    so proper subtrees are shared objects.
    """
    trees, seqs = {}, {}

    def tree_list(n, d):
        """(rendering, tree) for the trees of n nodes and depth <= d."""
        if (n, d) not in trees:
            kids = seq_list(n - 1, d - 1, width)
            trees[n, d] = [(s + "(" + key if children else s, Tree(s, children))
                           for s in symbols for key, children in kids]
        return trees[n, d]

    def seq_list(m, d, slots):
        key = (m, d, min(slots, m))  # m nodes fill at most m slots
        if key not in seqs:
            seqs[key] = list(seq_stream(*key))
        return seqs[key]

    def seq_stream(m, d, slots):
        """(rendering, children) for the sequences of at most ``slots`` trees
        of depth <= d totaling m nodes."""
        if m == 0:
            return iter([(")", ())])
        if slots == 0 or d < 1:
            return iter(())
        # renderings are distinct, so the merge never compares trees
        return heapq.merge(*(first_of_size(p, m, d, slots) for p in range(1, m + 1)))

    def first_of_size(p, m, d, slots):
        rest = seq_list(m - p, d, slots - 1)
        for r, t in tree_list(p, d):
            for key, children in rest:
                yield (r + "," + key if children else r + key), (t,) + children

    if not symbols:
        return
    for n in count(1):
        kids = seq_stream(n - 1, depth - 1, width)
        first = next(kids, None)
        if first is None:
            return  # removing a leaf keeps a tree within bounds, so no level follows
        for s, stream in zip(symbols, tee(chain([first], kids), len(symbols))):
            for _, children in stream:
                yield Tree(s, children)
