"""Vertex group oracles and their subgroup handles.

Three kinds of coefficient group can sit at a vertex:

* ``finite``  -- explicit multiplication table over named elements,
* ``integer`` -- the group of integers, subgroups are m*Z,
* ``free``    -- a free group of given rank, subgroups are folded core
  automata (Stallings graphs) with a marked base state.

All element values are plain Python data (str / int / tuple of nonzero
ints) so equality and hashing are structural.  Every kind exposes the
same surface: arithmetic, parsing, subgroup generation, and a subgroup
handle with index, right-coset transversals, hashable coset keys and a
separability routine that returns a finite-index oversubgroup avoiding a
finite excluded set.

Right cosets S*t are used throughout the package; ``coset_key`` is the
one coset notion each kind implements, and membership is derived from it.
A handle never changes once built (only its private caches fill), so one
may be shared: each oracle builds its trivial and full handles once.

Element values are checked where they enter: ``parse_element`` (which
the JSON readers call on every delta), ``Word.validate`` in the public
entry points, the public ``DecoratedMorphism(...)`` constructor, the
subgroup constructors, ``member`` and ``format_element``.  Arithmetic
(``mul``, ``inv``, ``is_identity``) and ``coset_key`` take values checked
there, or computed from such values, and do not check them again.
"""

from __future__ import annotations

import math

from .errors import (
    ForeignElement,
    GogsepError,
    InfiniteIndex,
    NotSeparated,
)

__all__ = [
    "VertexGroup",
    "FiniteGroup",
    "IntGroup",
    "FreeGroup",
    "SubgroupHandle",
    "subgroup_generate",
]


class VertexGroup:
    """Common surface of a vertex group oracle."""

    kind = "abstract"
    _trivial = _full = None  # the shared handles, built on first request

    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def check(self, g):
        """Raise ForeignElement unless g is a valid element value."""
        raise NotImplementedError

    def is_identity(self, g):
        return g == self.identity()

    def subgroup(self, generators) -> "SubgroupHandle":
        raise NotImplementedError

    def trivial_subgroup(self) -> "SubgroupHandle":
        if self._trivial is None:
            self._trivial = self.subgroup([])
        return self._trivial

    def full_subgroup(self) -> "SubgroupHandle":
        if self._full is None:
            self._full = self._full_subgroup()
        return self._full

    def _full_subgroup(self) -> "SubgroupHandle":
        raise NotImplementedError

    def parse_element(self, text):
        raise NotImplementedError

    def format_element(self, g) -> str:
        raise NotImplementedError

    def sort_key(self, g):
        """Deterministic ordering key; only compared within one oracle."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError

    def conjugate(self, t, g):
        """t * g * t^-1."""
        return self.mul(self.mul(t, g), self.inv(t))


class SubgroupHandle:
    """Common surface of a subgroup of a vertex group, which ``generators``
    generate.  Membership is the identity's coset: g in S iff S*g == S*1.

    Immutable once built, apart from private caches, so handles are shared.
    """

    def __init__(self, group: VertexGroup, generators):
        self.group = group
        self.generators = tuple(generators)

    def member(self, g) -> bool:
        self.group.check(g)
        return self.coset_key(g) == self.coset_key(self.group.identity())

    def is_trivial(self) -> bool:
        return all(self.group.is_identity(g) for g in self.generators)

    def index(self):
        """[G : S] as an int, or None when infinite."""
        raise NotImplementedError

    def coset_reps(self, limit=None):
        """Right-coset transversal, identity first, deterministic order.

        With a limit, only its first ``limit`` reps, so that a huge index
        costs nothing to sample.
        """
        raise NotImplementedError

    def coset_key(self, g):
        """Hashable key of the right coset S*g, also at infinite index.

        ``coset_key(a) == coset_key(b)`` exactly when S*a == S*b, that is
        when a * b^-1 lies in S.
        """
        raise NotImplementedError

    def separate(self, excluded) -> "SubgroupHandle":
        """Finite-index K >= S with K disjoint from the excluded set."""
        excluded = list(excluded)
        for x in excluded:
            if self.member(x):
                raise NotSeparated(
                    f"{self.group.format_element(x)} lies in the subgroup"
                )
        return self._overgroup(excluded)

    def _overgroup(self, excluded) -> "SubgroupHandle":
        """``separate`` once no excluded element lies in S."""
        raise NotImplementedError

    def conjugated(self, t) -> "SubgroupHandle":
        """The subgroup t * S * t^-1."""
        g = self.group
        return g.subgroup([g.conjugate(t, x) for x in self.generators])

    def describe(self) -> str:
        gens = ", ".join(self.group.format_element(g) for g in self.generators)
        return f"<{gens}>" if gens else "<1>"

    def __repr__(self):
        return f"{type(self).__name__}({self.describe()})"


# ---------------------------------------------------------------------------
# finite kind

# The largest --max-order: the table check is cubic in the order (0.06/0.4/3 s
# at 64/128/256 on a 2-core Xeon), and a cyclic order costs a few bytes.
MAX_ORDER_CEILING = 256


def _check_order(n, max_order):
    if n > max_order:
        raise GogsepError(f"finite group order {n} exceeds cap {max_order}")


class FiniteGroup(VertexGroup):
    """Finite group given by an explicit multiplication table.

    ``elements`` fixes the canonical element order used for transversals;
    the identity is detected from the table.  Ingestion is capped at
    ``max_order`` elements (default 64).
    """

    kind = "finite"

    def __init__(self, elements, table, name=None, max_order=64):
        elements = list(elements)
        if len(set(elements)) != len(elements):
            raise GogsepError("duplicate element names in finite group")
        _check_order(len(elements), max_order)
        if not elements:
            raise GogsepError("finite group needs at least one element")
        self.elements = elements
        self._pos = {g: i for i, g in enumerate(elements)}
        self.table = {a: dict(row) for a, row in table.items()}
        self.name = name
        self._validate()

    def _validate(self):
        els = set(self.elements)
        for a in self.elements:
            row = self.table.get(a)
            if row is None or set(row) != els or not set(row.values()) <= els:
                raise GogsepError(f"multiplication table broken at {a!r}")
        ident = None
        for e in self.elements:
            if all(
                self.table[e][x] == x and self.table[x][e] == x
                for x in self.elements
            ):
                ident = e
                break
        if ident is None:
            raise GogsepError("finite group table has no identity")
        self._identity = ident
        self._inv = {}
        for a in self.elements:
            for b in self.elements:
                if self.table[a][b] == ident and self.table[b][a] == ident:
                    self._inv[a] = b
                    break
            else:
                raise GogsepError(f"no inverse for {a!r}")
        for a in self.elements:
            for b in self.elements:
                ab = self.table[a][b]
                for c in self.elements:
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise GogsepError(
                            f"associativity fails at ({a!r},{b!r},{c!r})"
                        )

    @classmethod
    def cyclic(cls, n, letter="a", name=None, max_order=64):
        """Cyclic group of order n with elements 1, a, a2, ..."""
        _check_order(n, max_order)  # before the n x n table is built
        names = ["1"] + [letter if k == 1 else f"{letter}{k}" for k in range(1, n)]
        table = {
            names[i]: {names[j]: names[(i + j) % n] for j in range(n)}
            for i in range(n)
        }
        return cls(names, table, name=name or f"C{n}", max_order=max_order)

    def identity(self):
        return self._identity

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def check(self, g):
        if g not in self._pos:
            raise ForeignElement(f"{g!r} is not an element of {self.describe()}")

    def subgroup(self, generators):
        return FiniteSubgroup(self, generators)

    def _full_subgroup(self):
        return FiniteSubgroup(self, list(self.elements))

    def parse_element(self, text):
        if not isinstance(text, str) or text not in self._pos:
            raise ForeignElement(f"unknown element {text!r} of {self.describe()}")
        return text

    def format_element(self, g):
        self.check(g)
        return g

    def sort_key(self, g):
        return self._pos[g]

    def describe(self):
        return self.name or f"finite[{len(self.elements)}]"

    def to_json(self):
        doc = {
            "kind": "finite",
            "elements": list(self.elements),
            "table": {a: dict(self.table[a]) for a in self.elements},
        }
        if self.name:
            doc["name"] = self.name
        return doc


class FiniteSubgroup(SubgroupHandle):
    def __init__(self, group, generators):
        for g in generators:
            group.check(g)
        super().__init__(group, generators)
        closure = {group.identity()}
        frontier = [group.identity()]
        while frontier:
            nxt = []
            for s in frontier:
                for g in self.generators:
                    p = group.table[s][g]
                    if p not in closure:
                        closure.add(p)
                        nxt.append(p)
            frontier = nxt
        self.members = frozenset(closure)
        self._reps = None

    def index(self):
        return len(self.group.elements) // len(self.members)

    def _transversal(self):
        if self._reps is None:
            order = [self.group.identity()] + [
                g for g in self.group.elements if g != self.group.identity()
            ]
            reps, rep_of = [], {}
            for t in order:
                if t not in rep_of:
                    reps.append(t)
                    for s in self.members:
                        rep_of[self.group.table[s][t]] = t
            self._reps = (reps, rep_of)
        return self._reps

    def coset_reps(self, limit=None):
        return self._transversal()[0][:limit]

    def coset_key(self, g):
        return self._transversal()[1][g]

    def _overgroup(self, excluded):
        return self

    def describe(self):
        return f"order {len(self.members)} of {self.group.describe()}"


# ---------------------------------------------------------------------------
# integer kind


def _decimal(n: int) -> str:
    """str(n), or a GogsepError naming the digit count past Python's limit:
    input integers are capped there, but the sums a fold makes are not."""
    try:
        return str(n)
    except ValueError:
        digits = int(abs(n).bit_length() * math.log10(2)) + 1  # at most 1 over
        digits -= 10 ** (digits - 1) > abs(n)
        raise GogsepError(f"integer of {digits} digits is too long to print") from None


def _ascii_decimal(digits: str):
    """int(digits) for a nonempty run of ASCII digits, else None.

    str.isdigit alone also passes '²', which int() rejects, and '١', which
    int() reads as 1.
    """
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(digits)
    except ValueError:  # past Python's digit limit for int()
        raise ForeignElement(f"integer of {len(digits)} digits is too long") from None


class IntGroup(VertexGroup):
    """The infinite cyclic group of integers; subgroups are m*Z."""

    kind = "integer"

    def identity(self):
        return 0

    def mul(self, a, b):
        return a + b

    def inv(self, a):
        return -a

    def check(self, g):
        if not isinstance(g, int) or isinstance(g, bool):
            raise ForeignElement(f"{g!r} is not an integer element")

    def subgroup(self, generators):
        return IntSubgroup(self, generators)

    def _full_subgroup(self):
        return IntSubgroup(self, [1])

    def parse_element(self, text):
        if isinstance(text, int) and not isinstance(text, bool):
            return text
        if isinstance(text, str):
            t = text.strip()
            n = _ascii_decimal(t[1:] if t[:1] in ("+", "-") else t)
            if n is not None:
                return -n if t[:1] == "-" else n
        raise ForeignElement(f"{text!r} is not a decimal integer")

    def format_element(self, g):
        self.check(g)
        return _decimal(g)

    def sort_key(self, g):
        return g

    def describe(self):
        return "Z"

    def to_json(self):
        return {"kind": "integer"}


class IntSubgroup(SubgroupHandle):
    def __init__(self, group, generators):
        for g in generators:
            group.check(g)
        super().__init__(group, generators)
        self.modulus = math.gcd(*[abs(g) for g in generators]) if generators else 0

    def index(self):
        return self.modulus if self.modulus > 0 else None

    def coset_reps(self, limit=None):
        if self.modulus == 0:
            raise InfiniteIndex("trivial subgroup of Z has no finite transversal")
        return list(range(self.modulus)[:limit])

    def coset_key(self, g):
        return g % self.modulus if self.modulus else g

    def _overgroup(self, excluded):
        if self.modulus != 0:
            return self
        # The least modulus that divides no excluded element: a few prime
        # factors cover them all, so it stays small however big they are.
        n = 1
        while any(x % n == 0 for x in excluded):
            n += 1
        return IntSubgroup(self.group, [n])

    def describe(self):
        return f"{_decimal(self.modulus)}Z"


# ---------------------------------------------------------------------------
# free kind

# Elements are reduced tuples of nonzero ints: letter k is the k-th basis
# element, -k its inverse.  The empty tuple is the identity.


def _mul_free(a, b):
    out = list(a)
    for l in b:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def _inv_free(a):
    return tuple(-l for l in reversed(a))


class _Automaton:
    """Mutable folding automaton over letters +-1..+-rank, base state 0.

    Transitions are stored in both directions: (s, l) -> t always comes
    with (t, -l) -> s.  Folding is union-find driven; stale targets are
    resolved through find() and squeezed out by normalized().
    """

    def __init__(self, rank):
        self.rank = rank
        self.adj = [dict()]
        self.parent = [0]
        self.pending = []

    def new_state(self):
        self.adj.append({})
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, s):
        root = s
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[s] != root:
            self.parent[s], s = root, self.parent[s]
        return root

    def _half(self, s, l, t):
        s, t = self.find(s), self.find(t)
        cur = self.adj[s].get(l)
        if cur is None:
            self.adj[s][l] = t
        else:
            cur = self.find(cur)
            self.adj[s][l] = cur
            if cur != t:
                self.pending.append((cur, t))

    def connect(self, s, l, t):
        self._half(s, l, t)
        self._half(t, -l, s)

    def add_loop(self, word):
        """Fold the loop ``word`` at the base into the folded automaton.

        Reads word forward from the base, and backward by inverse letters,
        as far as transitions exist; only the unread middle gets new
        states.  When the reads meet, their end states are merged.  This is
        the fold of a fresh path for word with its read ends already
        folded, so the folded result is the same, and a word the automaton
        already reads as a loop makes no state at all.
        """
        self.fold()
        i, j = 0, len(word)
        s = r = 0
        while i < j and (t := self.adj[s].get(word[i])) is not None:
            s, i = self.find(t), i + 1
        while i < j and (t := self.adj[r].get(-word[j - 1])) is not None:
            r, j = self.find(t), j - 1
        if i == j:
            if s != r:
                self.pending.append((s, r))
            return
        for l in word[i:j - 1]:
            t = self.new_state()
            self.connect(s, l, t)
            s = t
        self.connect(s, word[j - 1], r)

    def fold(self):
        while self.pending:
            a, b = self.pending.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            self.parent[b] = a
            moved, self.adj[b] = self.adj[b], {}
            for l, t in moved.items():
                self._half(a, l, self.find(t))

    def normalized(self):
        """(base, rows): each state's row {letter: state}, union-find applied.

        Merged states have empty rows, so only live states have transitions.
        Every live state is reachable from the base: each was made on a
        path from state 0, and merges keep that.  The result is already
        the core: a live state other than the base lies inside the read
        of some reduced generator, which never turns back, so it has two
        distinct transitions.
        """
        self.fold()
        rows = [{l: self.find(t) for l, t in row.items()} for row in self.adj]
        return self.find(0), rows


def _letters(rank):
    for k in range(1, rank + 1):
        yield k
        yield -k


def _relabel_bfs(base, rows, rank):
    """Canonical renumbering: BFS from base, letters in 1,-1,2,-2 order.

    Returns the rows of the states reachable from the base, renumbered.
    """
    order = [base]
    number = {base: 0}
    for s in order:  # the list grows as the search finds states
        for l in _letters(rank):
            t = rows[s].get(l)
            if t is not None and t not in number:
                number[t] = len(order)
                order.append(t)
    return [{l: number[t] for l, t in rows[s].items()} for s in order]


# The largest free rank: a subgroup of index n in F_r has n*(r-1)+1 Schreier
# generators, so output is linear in the rank's value and exponential in its
# digits.  Tests and workloads use rank 3 at most.
MAX_RANK = 64


class FreeGroup(VertexGroup):
    """Free group of finite rank; subgroups carried as folded core automata."""

    kind = "free"

    def __init__(self, rank):
        if type(rank) is not int or not 0 <= rank <= MAX_RANK:
            raise GogsepError(f"free group rank must be an int in 0..{MAX_RANK}: {rank!r}")
        self.rank = rank
        self._syllables = {}  # each syllable read so far -> its letter

    def identity(self):
        return ()

    def mul(self, a, b):
        return _mul_free(a, b)

    def inv(self, a):
        return _inv_free(a)

    def check(self, g):
        if not isinstance(g, tuple):
            raise ForeignElement(f"{g!r} is not a free group word")
        for i, l in enumerate(g):
            if not isinstance(l, int) or l == 0 or abs(l) > self.rank:
                raise ForeignElement(f"letter {l!r} out of rank {self.rank}")
            if i and g[i - 1] == -l:
                raise ForeignElement(f"word {g!r} is not reduced")

    def subgroup(self, generators):
        return FreeSubgroup(self, generators)

    def _full_subgroup(self):
        return FreeSubgroup(self, [(k,) for k in range(1, self.rank + 1)])

    def parse_element(self, text):
        if not isinstance(text, str):
            raise ForeignElement(f"{text!r} is not a free group word string")
        t = text.strip()
        if t == "1":
            return ()
        table = self._syllables
        word = tuple(table.get(p) or self._syllable(p, text) for p in t.split("."))
        for a, b in zip(word, word[1:]):
            if a == -b:
                raise ForeignElement(f"{text!r} is not reduced")
        return word

    def _syllable(self, part, text):
        """The letter of a syllable not in the table yet, which stores it."""
        body = part[:-1] if part.endswith("-") else part
        k = _ascii_decimal(body[1:]) if body.startswith("x") else None
        if k is None:
            raise ForeignElement(f"bad syllable {part!r} in {text!r}")
        if not 1 <= k <= self.rank:
            raise ForeignElement(f"letter x{k} out of rank {self.rank}")
        letter = self._syllables[part] = -k if part.endswith("-") else k
        return letter

    def format_element(self, g):
        self.check(g)
        if not g:
            return "1"
        return ".".join(f"x{abs(l)}" + ("-" if l < 0 else "") for l in g)

    def sort_key(self, g):
        return (len(g), g)

    def describe(self):
        return f"F{self.rank}"

    def to_json(self):
        return {"kind": "free", "rank": self.rank}


class FreeSubgroup(SubgroupHandle):
    """Finitely generated subgroup as a folded core automaton.

    Folding the generators' loops gives the core with no trim (see
    ``_Automaton.normalized``).  ``rows[s]`` maps each letter read at state
    s to its target, canonically numbered (BFS from the base in letter
    order), so equal subgroups carry identical rows regardless of the
    generating set they came from.  The rows never change, so the index is
    fixed when the handle is built.
    """

    def __init__(self, group, generators, _rows=None):
        gens = []
        for g in generators:
            group.check(g)
            if g:
                gens.append(g)
        super().__init__(group, tuple(gens))
        self._spanning = None
        if _rows is None:
            auto = _Automaton(group.rank)
            for g in gens:
                auto.add_loop(g)
            _rows = _relabel_bfs(*auto.normalized(), group.rank)
        self.rows = _rows
        complete = all(len(row) == 2 * group.rank for row in _rows)
        self._index = len(_rows) if complete else None

    def index(self):
        return self._index

    def _spanning_reps(self):
        """BFS-tree coset representative word for every state (cached)."""
        if self._spanning is not None:
            return self._spanning
        reps = {0: ()}
        tree = set()
        for s, row in enumerate(self.rows):  # states are numbered in BFS order
            for l in _letters(self.group.rank):
                t = row.get(l)
                if t is not None and t not in reps:
                    reps[t] = reps[s] + (l,)
                    tree.add((s, l))
                    tree.add((t, -l))
        self._spanning = (reps, tree)
        return self._spanning

    def coset_reps(self, limit=None):
        if self._index is None:
            raise InfiniteIndex(f"{self.describe()} has infinite index")
        reps, _ = self._spanning_reps()
        return [reps[s] for s in range(self._index)[:limit]]

    def coset_key(self, g):
        """(state where tracing g stops, unread suffix of g).

        The Schreier graph of S is its core automaton with a tree hanging
        off every missing transition.  Tracing the reduced word g from the
        base reads a prefix inside the core and stops at a state s; the
        unread suffix r starts with a letter missing at s and so runs down
        the tree hanging there.  A reduced path in a tree never turns
        back, so it cannot come back out into the core, and distinct
        (s, r) reach distinct vertices of the tree.  Hence S*g, the vertex
        g reaches, determines (s, r) and is determined by it.
        """
        s = 0
        for i, l in enumerate(g):
            t = self.rows[s].get(l)
            if t is None:
                return (s, g[i:])
            s = t
        return (s, ())

    def _overgroup(self, excluded):
        excluded = sorted(
            {_mul_free((), x) for x in excluded}, key=self.group.sort_key
        )
        rows = [dict(row) for row in self.rows]
        # Hair: materialize the full path of each excluded word so its
        # endpoint is pinned away from the base before completion.
        for x in excluded:
            s = 0
            for l in x:
                t = rows[s].get(l)
                if t is None:
                    t = rows[s][l] = len(rows)
                    rows.append({-l: s})
                s = t
        # Complete each letter's partial injection to a permutation.
        for k in range(1, self.group.rank + 1):
            missing_src = [s for s, row in enumerate(rows) if k not in row]
            missing_dst = [s for s, row in enumerate(rows) if -k not in row]
            for s, t in zip(missing_src, missing_dst):
                rows[s][k] = t
                rows[t][-k] = s
        # The completed automaton is already the folded core of the subgroup
        # its Schreier generators make, canonically numbered: no refold.
        k = FreeSubgroup(self.group, [], _rows=_relabel_bfs(0, rows, self.group.rank))
        k.generators = tuple(k._schreier_generators())
        return k

    def _schreier_generators(self):
        reps, tree = self._spanning_reps()
        gens = []
        for s, row in enumerate(self.rows):
            for k in range(1, self.group.rank + 1):
                t = row.get(k)
                if t is None or (s, k) in tree:
                    continue
                w = _mul_free(_mul_free(reps[s], (k,)), _inv_free(reps[t]))
                if w:
                    gens.append(w)
        return gens

    def describe(self):
        gens = ", ".join(self.group.format_element(g) for g in self.generators)
        idx = self.index()
        tag = f"index {idx}" if idx is not None else "infinite index"
        return f"<{gens or '1'}> ({tag})"


# ---------------------------------------------------------------------------
# module-level constructors


def subgroup_generate(oracle: VertexGroup, generators) -> SubgroupHandle:
    """Canonical subgroup handle for the subgroup generated by ``generators``."""
    return oracle.subgroup(generators)


def oracle_from_json(doc, path="$", max_order=64) -> VertexGroup:
    """Build an oracle from its JSON description."""
    from .errors import SchemaError

    if not isinstance(doc, dict):
        raise SchemaError(path, "oracle must be an object")
    kind = doc.get("kind")
    name = doc.get("name")
    if kind in ("finite", "cyclic") and not isinstance(name, (str, type(None))):
        raise SchemaError(f"{path}.name", f"bad name {name!r}")
    if kind == "finite":
        if "elements" not in doc or "table" not in doc:
            raise SchemaError(path, "finite oracle needs elements and table")
        elements, table = doc["elements"], doc["table"]
        if not isinstance(elements, list) or not all(
            isinstance(x, str) and x for x in elements
        ):
            raise SchemaError(f"{path}.elements", "must be a list of non-empty strings")
        if not isinstance(table, dict) or not all(
            isinstance(row, dict) and all(isinstance(x, str) for x in row.values())
            for row in table.values()
        ):
            raise SchemaError(f"{path}.table", "must be an object of string objects")
        try:
            return FiniteGroup(elements, table, name=name, max_order=max_order)
        except GogsepError as exc:
            raise SchemaError(path, str(exc)) from exc
    if kind == "cyclic":
        order, letter = doc.get("order"), doc.get("letter", "a")
        if type(order) is not int or order < 1 or order > max_order:
            raise SchemaError(f"{path}.order", f"bad cyclic order {order!r}")
        if not isinstance(letter, str) or not letter:
            raise SchemaError(f"{path}.letter", f"bad cyclic letter {letter!r}")
        try:
            return FiniteGroup.cyclic(order, letter, name=name, max_order=max_order)
        except GogsepError as exc:
            raise SchemaError(f"{path}.letter", str(exc)) from exc
    if kind == "integer":
        return IntGroup()
    if kind == "free":
        rank = doc.get("rank")
        try:
            return FreeGroup(rank)
        except GogsepError as exc:
            raise SchemaError(f"{path}.rank", str(exc)) from exc
    raise SchemaError(f"{path}.kind", f"unknown oracle kind {kind!r}")
