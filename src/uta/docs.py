"""The textual document format for automata and fooling sets.

One self-describing, line-oriented format covers all five tree automaton
kinds, standalone string machines and fooling sets, so conversion output
can be piped straight back into any command.  Rendering is canonical
(sorted fields, fixed order): output is byte-reproducible, and
``parse(render(x)) == x`` for every automaton the library produces.

Lines are ``field: tokens`` (tokens split on whitespace); blank lines and
``#`` comments are skipped.  A document opens with ``kind`` (a standalone
machine then with ``alphabet``).  Tree-automaton documents hold a header
and one ``horizontal`` block per (state, symbol) pair, or per symbol with
``outputs`` for the strongly deterministic kind.  One field reader reads
every section: a field appears at most once unless it may repeat (``trans``,
``tree``, ``tuple``; ``sep i j`` once per pair), a required field must
appear, and any other field is an error.  Each error is a DocumentError
naming its line, if it has one; the command line then exits with status 2.
"""

from __future__ import annotations

from functools import cache

from .automata import (DFA_KINDS, DTA_DFA, DTA_NFA, KINDS, SDTA, TreeAutomaton, _from_blocks,
                       check_semantic_determinism)
from .errors import DocumentError, KindError, TreeSyntaxError, UnknownSymbolError
from .strings import DFA, NFA, MooreDFA, shared_structures
from .trees import SYMBOL_RE, VARIABLE, parse_context, parse_tree, render_tree

MACHINES = {"nfa": NFA, "dfa": DFA, "moore-dfa": MooreDFA}

# Field names, shared by the renderers and the reader.
KIND, ALPHABET, STATES, FINALS, LEAFSTATES = "kind", "alphabet", "states", "finals", "leafstates"
INITIAL, OUTPUTS, TRANS, HORIZONTAL = "initial", "outputs", "trans", "horizontal"
SYMBOL, TREE, TUPLE, SEP = "symbol", "tree", "tuple", "sep"

# How often a field may appear in its section; a _PAIR field (a separator)
# is written "name i j" and appears at most once per pair of integers.
_ONCE, _REQUIRED, _REPEAT, _PAIR = "at most once", "required", "may repeat", "once per pair"


def _check_token(tok: str, what: str):
    if tok.split() != [tok] or "=" in tok:  # split() breaks at what isspace() flags
        raise DocumentError(f"{what} {tok!r} is not a valid token")


def _check_tree_alphabet(symbols, line=None):  # the parser's and renderer's rule
    for sym in symbols:
        if not SYMBOL_RE.fullmatch(sym) or sym == VARIABLE:
            raise DocumentError(f"alphabet symbol {sym!r} is not a valid tree symbol", line)


def render_machine_lines(mach, indent="", like=None) -> list:
    """A machine's lines; given ``like``, the lines of a machine of its class
    and structure, the ``states`` and ``trans`` lines are copied from those."""
    for s in () if like else mach.states:
        _check_token(s, "state name")
    lines = [like[0] if like else (f"{indent}{STATES}: " + " ".join(sorted(mach.states))).rstrip(),
             f"{indent}{INITIAL}: " + " ".join(sorted(mach.initials)),
             (f"{indent}{FINALS}: " + " ".join(sorted(mach.finals))).rstrip()]
    if isinstance(mach, MooreDFA):
        for v in mach.outputs.values():
            _check_token(str(v), "output value")
        outs = " ".join(f"{s}={mach.outputs[s]}" for s in sorted(mach.outputs))
        lines.append(f"{indent}{OUTPUTS}: {outs}".rstrip())
    if like:
        return lines + like[len(lines):]
    return lines + [f"{indent}{TRANS}: {src} {sym} {dst}" for src, sym, dst in mach.transitions()]


def render_automaton(a, header_comments=()) -> str:
    """Canonical document text for a TreeAutomaton or a standalone machine.
    Blocks of one class and structure (``strings.shared_structures``) render
    their ``states`` and ``trans`` lines once, at the first of them."""
    lines = [f"# {c}" for c in header_comments]
    tree = isinstance(a, TreeAutomaton)
    kind = a.kind if tree else {c: k for k, c in MACHINES.items()}[type(a)]
    lines.append(f"{KIND}: {kind}")
    lines.append(f"{ALPHABET}: " + " ".join(sorted(a.alphabet)))
    if tree:
        _check_tree_alphabet(sorted(a.alphabet))
        for q in a.states:
            _check_token(q, "state name")
        lines.append((f"{STATES}: " + " ".join(sorted(a.states))).rstrip())
        lines.append((f"{FINALS}: " + " ".join(sorted(a.finals))).rstrip())
        if a.leaf_symbols:
            lines.append(f"{LEAFSTATES}: " + " ".join(sorted(a.leaf_symbols)))
        blocks = a._blocks  # by (state, symbol), or (symbol,) for an sdta
        lead = {k: g[0] for g in shared_structures([m for _, m in blocks]) for k in g}
        done = []  # each block's lines
        for k, (key, m) in enumerate(blocks):
            like = done[lead[k]] if lead[k] < k and type(blocks[lead[k]][1]) is type(m) else None
            done.append(render_machine_lines(m, "  ", like))
            lines += [f"{HORIZONTAL} {' '.join(key)}:", *done[k]]
    else:
        for sym in a.alphabet:
            _check_token(sym, "alphabet symbol")
        lines.extend(render_machine_lines(a))
    return "\n".join(lines) + "\n"


def _records(text):
    """The record scanner: (line number, name, tokens) per line that is
    neither blank nor a comment; a ``horizontal`` block header has the rest
    of its line for tokens."""
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, colon, rest = line.partition(":")
        if line.startswith(HORIZONTAL):
            yield no, HORIZONTAL, line[len(HORIZONTAL):].strip()
        elif colon:
            yield no, name.strip(), rest.split()
        else:
            raise DocumentError(f"expected 'field: value', got {line!r}", no)


def _one(name, toks, no):
    if len(toks) != 1:
        raise DocumentError(f"{name} takes exactly one value", no)
    return toks[0]


def _lead(records, name, values=None):
    """The tokens of the next record, which must be field ``name``; given
    ``values`` (the kind check), its one token, which must be among them."""
    no, got, toks = next(records, (None, None, None))
    if got != name:
        raise DocumentError(f"expected field {name!r}, got {got!r}" if no
                            else f"document is missing field {name!r}", no)
    if values is not None and _one(name, toks, no) not in values:
        raise DocumentError(f"unknown {name} {toks[0]!r}", no)
    return toks if values is None else toks[0]


def _read_fields(records, fields, where, blocks=True):
    """The field reader: one section of ``records``, up to the next block
    header if ``blocks`` may follow (else a header is unexpected).  For
    each name, ``fields`` holds (rule, parse); ``parse(tokens, line)`` reads
    an occurrence as it is met, so errors come in line order.  Returns the
    values (a list for _REPEAT, a dict by (i, j) for _PAIR), the lines by
    name or (i, j), and the block header ``(line, text)``, or None."""
    got, lines, header = {}, {}, None
    for no, name, toks in records:
        if name == HORIZONTAL and blocks:
            header = no, toks
            break
        word, *index = name.split() or [""]
        rule, parse = fields.get(word, (None, None))
        if rule is None or len(index) != (2 if rule is _PAIR else 0):
            raise DocumentError(f"unexpected field {name!r} in {where}", no)
        if rule is _REPEAT:
            got.setdefault(word, []).append(parse(toks, no))
            continue
        seen, key = got, word
        if rule is _PAIR:
            seen = got.setdefault(word, {})
            try:
                key = int(index[0]), int(index[1])
            except ValueError:
                raise DocumentError(f"separator indices must be integers: {name!r}", no) from None
        if key in seen:
            what = "separator" if rule is _PAIR else "field"
            raise DocumentError(f"duplicate {what} {name!r} in {where}", no)
        seen[key], lines[key] = parse(toks, no) if parse else toks, no
    for name, (rule, _) in fields.items():
        if rule is _REQUIRED and name not in got:
            raise DocumentError(f"{where} is missing field {name!r}")
    return got, lines, header


def _read_machine(records, cls, alphabet, where):
    """One string machine of class ``cls``, and the header ending it."""
    def trans(toks, no):
        if len(toks) != 3:
            raise DocumentError(f"trans needs 'src sym dst', got {toks}", no)
        return tuple(toks)

    def outputs(toks, no):
        out = {}
        for tok in toks:
            if "=" not in tok:
                raise DocumentError(f"output entry {tok!r} needs 'state=value'", no)
            s, _, v = tok.partition("=")
            if s in out:
                raise DocumentError(f"state {s!r} has two outputs in {where}", no)
            out[s] = v
        return out

    fields = {**dict.fromkeys((STATES, INITIAL, FINALS), (_REQUIRED, None)),
              TRANS: (_REPEAT, trans)}
    if cls is MooreDFA:
        fields[OUTPUTS] = (_ONCE, outputs)
    got, lines, header = _read_fields(records, fields, where)
    initial = got[INITIAL] if cls is NFA else _one(INITIAL, got[INITIAL], lines[INITIAL])
    extra = (got.get(OUTPUTS, {}),) if cls is MooreDFA else ()
    try:
        return cls(got[STATES], alphabet, initial, got[FINALS], got.get(TRANS, []),
                   *extra), header
    except ValueError as e:
        raise DocumentError(f"{where}: {e}", lines[STATES]) from None


def parse_automaton(text: str):
    """Parse a document into a TreeAutomaton or a standalone machine.

    Documents violating the invariants of their declared kind are rejected,
    including the semantic-determinism requirement of the two weakly
    deterministic kinds.
    """
    records = _records(text)
    kind = _lead(records, KIND, (*MACHINES, *KINDS))
    if kind in MACHINES:
        alphabet = _lead(records, ALPHABET)
        mach, header = _read_machine(records, MACHINES[kind], alphabet, f"{kind} machine")
        if header:  # a block belongs to tree automata only
            raise DocumentError(f"unexpected field {HORIZONTAL!r} in {kind} machine", header[0])
        return mach

    fields = {**dict.fromkeys((ALPHABET, STATES, FINALS), (_REQUIRED, None)),
              LEAFSTATES: (_ONCE, None)}
    got, lines, header = _read_fields(records, fields, "document")
    alphabet, states, leaf = got[ALPHABET], got[STATES], got.get(LEAFSTATES, [])
    _check_tree_alphabet(alphabet, lines[ALPHABET])
    ha = set(states) | set(leaf)

    blocks = {}  # by (state, symbol), or (symbol,) for an sdta
    cls = MooreDFA if kind == SDTA else DFA if kind in DFA_KINDS else NFA
    arity, keyed = (1, "<symbol>") if kind == SDTA else (2, "<state> <symbol>")
    while header:
        no, head = header
        keys = head[:-1].split()
        if not head.endswith(":") or len(keys) != arity:
            raise DocumentError(f"a {kind} block header reads '{HORIZONTAL} {keyed}:'", no)
        mach, header = _read_machine(records, cls, ha, f"block {head!r}")
        if tuple(keys) in blocks:
            raise DocumentError(f"duplicate block {head!r}", no)
        blocks[tuple(keys)] = mach

    try:
        auto = _from_blocks(kind, alphabet, states, got[FINALS], leaf, blocks)
    except KindError as e:
        raise DocumentError(str(e)) from None
    if kind in (DTA_NFA, DTA_DFA):
        det = check_semantic_determinism(auto)
        if not det.ok:
            raise DocumentError(
                f"kind {kind} requires disjoint horizontal languages, but "
                f"states {det.pair[0]!r} and {det.pair[1]!r} overlap under "
                f"{det.symbol!r} on {' '.join(det.witness)!r}")
    return auto


def render_fooling_vertical(fs) -> str:
    lines = [f"{KIND}: fooling-vertical", *(f"{TREE}: {render_tree(t)}" for t in fs.trees)]
    return _render_separators(lines, fs.separators, str, len(fs.trees))


def render_fooling_horizontal(fs) -> str:
    lines = [f"{KIND}: fooling-horizontal", f"{SYMBOL}: {fs.symbol}"]
    lines += [(f"{TUPLE}: " + " ".join(map(render_tree, tup))).rstrip() for tup in fs.tuples]
    return _render_separators(
        lines, fs.separators,
        lambda sep: f"{sep[0]} | {' '.join(map(render_tree, sep[1]))}".rstrip(), len(fs.tuples))


def _render_separators(lines, separators, render, n) -> str:
    """``lines`` and then one ``sep i j`` line per pair, in index order;
    each separator object is rendered once, however many pairs share it,
    and each index once, so a line is three strings joined.  A key the
    parser would reject, not 0 <= i < j < n, is an error."""
    from .witnesses import _check_keys
    _check_keys(separators, n)
    tails = {}  # id(separator) -> ": " and its text
    for sep in separators.values():
        if id(sep) not in tails:
            tails[id(sep)] = ": " + render(sep)
    nums = [*map(str, range(n))]
    heads = [f"{SEP} {i} " for i in nums]
    lines += [heads[i] + nums[j] + tails[id(separators[i, j])] for i, j in sorted(separators)]
    return "\n".join(lines) + "\n"


def parse_fooling_set(text: str, alphabet):
    """Parse a fooling-set document; trees use term syntax with no internal
    whitespace so they can be listed space-separated.  Each distinct text
    is parsed once, and equal texts share one parsed object: a horizontal
    separator is one (context, padding) pair per distinct text, whose parts
    are shared with the other pairs as well."""
    from .witnesses import FoolingSetHorizontal, FoolingSetVertical, _check_keys
    records = _records(text)
    kind = _lead(records, KIND, ("fooling-vertical", "fooling-horizontal"))
    horizontal = kind == "fooling-horizontal"
    once = cache(lambda parse, text: parse(text, alphabet))  # one object per text

    def trees(text, alphabet):  # a tuple or padding
        return tuple(once(parse_tree, t) for t in text.split())

    def parse_separator(text, alphabet):
        toks = text.split()
        cut = toks.index("|")
        return (once(parse_context, " ".join(toks[:cut])),
                once(trees, " ".join(toks[cut + 1:])))

    def at(no, parse, toks):  # a malformed tree names its line
        try:
            return once(parse, " ".join(toks))
        except (TreeSyntaxError, UnknownSymbolError) as e:
            raise DocumentError(str(e), no) from None

    def member(toks, no):
        return at(no, trees if horizontal else parse_tree, toks)

    def separator(toks, no):
        if horizontal and "|" not in toks:
            raise DocumentError("separator needs 'context | padding...'", no)
        return at(no, parse_separator if horizontal else parse_context, toks)

    def symbol(toks, no):
        if _one(SYMBOL, toks, no) not in alphabet or toks[0] == VARIABLE:
            raise DocumentError(f"unknown symbol {toks[0]!r}", no)
        return toks[0]

    name = TUPLE if horizontal else TREE
    fields = {name: (_REPEAT, member), SEP: (_PAIR, separator)}
    if horizontal:
        fields[SYMBOL] = (_REQUIRED, symbol)
    got, lines, _ = _read_fields(records, fields, f"{kind} document", blocks=False)
    members, seps = got.get(name, []), got.get(SEP, {})
    _check_keys(seps, len(members), lines)
    if horizontal:
        return FoolingSetHorizontal(members, got[SYMBOL], seps)
    return FoolingSetVertical(members, seps)
