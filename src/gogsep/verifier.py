"""Independent cross-checks for immersions, covers and certificates.

Nothing here reuses the lifting machinery's bookkeeping: membership is
re-derived by brute-force closure over short reduced loops, cover
degrees by Todd-Coxeter coset enumeration over a presentation of the
fundamental group, and local bijectivity by mapping a ball of the
Bass-Serre tree.  Agreement between these and the decorated-morphism
algorithms is the package's main line of defense.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from .core import GraphOfGroups, Word
from .errors import DidNotClose, GogsepError, NotAnImmersion, UnboundedEnumeration
from .morphism import CheckReport, DecoratedMorphism
from .separator import SeparationCertificate, VerificationReport, verify_certificate

__all__ = [
    "enumerate_ball_elements",
    "brute_member",
    "tree_ball",
    "ball_map_check",
    "crosscheck",
]


def _require_finite(gog: GraphOfGroups, what: str):
    for v in gog.graph.vertices:
        if gog.group_at(v).kind != "finite":
            raise UnboundedEnumeration(
                f"{what} needs finite vertex groups; {v!r} is {gog.group_at(v).kind}"
            )


def enumerate_ball_elements(gog: GraphOfGroups, u0: str, n: int) -> list[Word]:
    """All reduced loops at u0 with at most n edges, shortest first.

    They are the paths of ``tree_ball`` that end over u0, each closed by
    every element of the group at u0, so the same cap bounds them.
    """
    if not gog.graph.has_vertex(u0):
        raise GogsepError(f"unknown vertex {u0!r}")
    out = []
    for path in tree_ball(gog, u0, n):
        if path and gog.graph.tau(path[-1][1]) != u0:
            continue
        letters, edges = tuple(x for x, _ in path), tuple(e for _, e in path)
        out.extend(Word(gog, u0, letters + (g,), edges) for g in gog.group_at(u0).elements)
    return out


def brute_member(
    gog: GraphOfGroups,
    u0: str,
    gens: Sequence[Word],
    w: Word,
    pad: int = 2,
) -> bool:
    """Membership by closing <gens> over short loops, no folding involved.

    The closure runs inside the ball of radius |w| + 2*max|gen| + pad.
    A True answer is a genuine product expression; False only says no
    witness fits in the ball, which in practice settles small cases.
    """
    w = w.validate().reduce()
    gens = [g.validate().reduce() for g in gens]
    gens = [g for g in gens if not g.is_identity_loop()]
    if w.start != u0 or not w.is_loop():
        return False
    if w.is_identity_loop():
        return True
    bound = w.n + 2 * max((g.n for g in gens), default=0) + pad
    steps = []
    for g in gens:
        steps.append(g)
        steps.append(g.inverse())
    closure = {gog.identity_word(u0)}
    frontier = list(closure)
    while frontier:
        fresh = []
        for x in frontier:
            for g in steps:
                y = g * x  # a product of words is reduced
                if y.n <= bound and y not in closure:
                    closure.add(y)
                    fresh.append(y)
        frontier = fresh
    return w in closure


# ---------------------------------------------------------------------------
# coset enumeration

# Presentation of the fundamental group relative to a spanning tree:
# one symbol per nontrivial element of each vertex group with the full
# multiplication table as relators, plus one free stable letter per
# non-tree edge pair.  Symbols are numbered 0..k-1 in that order.  An edge
# translates to its group letters around its stable letter; tree edges
# vanish.


def _spanning_tree(graph, root: str):
    """A BFS spanning tree from root: the edge reaching each vertex in BFS
    order (None at root), and the tree edges in both orientations."""
    out, iota, rev = graph._out, graph._iota, graph._rev
    reach = {root: None}
    queue = [root]
    for v in queue:  # a list read while it grows is a FIFO queue
        for e in out[v]:
            w = iota[rev[e]]
            if w not in reach:
                reach[w] = e
                queue.append(w)
    tree = {x for e in reach.values() if e for x in (e, rev[e])}
    return reach, tree


def _presentation(gog: GraphOfGroups, root: str):
    """(inv, relators, stable, letter): inv[s] is the inverse of symbol s,
    stable maps each directed edge to its stable letter as a tuple (empty on
    the tree), and letter[v] each element of G_v to its symbol as a tuple
    (empty for the identity)."""
    _require_finite(gog, "coset enumeration")
    inv, relators, letter = [], [], {}
    for v in sorted(gog.graph.vertices):
        oracle = gog.group_at(v)
        nontrivial = [x for x in oracle.elements if not oracle.is_identity(x)]
        num = {x: len(inv) + i for i, x in enumerate(nontrivial)}
        letter[v] = {x: (num[x],) if x in num else () for x in oracle.elements}
        inv.extend(num[oracle.inv(x)] for x in nontrivial)
        for x in nontrivial:
            for y in nontrivial:
                z = oracle.mul(x, y)
                relators.append((num[x], num[y]) + letter[v][oracle.inv(z)])
    _, tree = _spanning_tree(gog.graph, root)
    stable = {}
    for p in gog.graph.edge_pairs():
        back = gog.graph._rev[p]
        if p in tree:
            stable[p] = stable[back] = ()
            continue
        s = len(inv)
        inv += [s + 1, s]
        stable[p], stable[back] = (s,), (s + 1,)
    return inv, relators, stable, letter


class _CosetTable:
    """A coset table over numbered symbols: row a is a list whose entry s is
    a·s, or None while undefined.  Coincident cosets merge into the smaller
    number, so a coset is live exactly when it is its own parent."""

    def __init__(self, inv, cap):
        self.inv = inv
        self.cap = cap
        self.rows = [[None] * len(inv)]
        self.parent = [0]
        self.pending = deque()

    def find(self, a):
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def define(self, a, s):
        """A new coset a·s, for a live coset a whose entry s is undefined."""
        rows = self.rows
        if len(rows) > self.cap:
            raise DidNotClose(self.cap)
        b = len(rows)
        row = [None] * len(self.inv)
        row[self.inv[s]] = a
        rows.append(row)
        self.parent.append(b)
        rows[a][s] = b
        return b

    def merge(self):
        find, rows, pending = self.find, self.rows, self.pending
        while pending:
            a, b = pending.popleft()
            a, b = find(a), find(b)
            if a == b:
                continue
            keep, dead = min(a, b), max(a, b)
            self.parent[dead] = keep
            row = rows[dead]
            rows[dead] = None
            for s, t in enumerate(row):
                if t is None:
                    continue
                t = find(t)
                cur = rows[keep][s]
                if cur is None:
                    # t·s⁻¹ already meets dead, and so keep, through the
                    # queued coincidences, or will once this loop reaches
                    # dead's own s⁻¹ entry: nothing to queue for it.
                    rows[keep][s] = t
                elif find(cur) != t:
                    pending.append((cur, t))

    def trace(self, a, word):
        """The coset a·word, defining cosets along the word as needed; the
        steps trace before any coincidence, so every coset is live."""
        rows = self.rows
        for s in word:
            nxt = rows[a][s]
            a = self.define(a, s) if nxt is None else nxt
        return a

    def scan_fill(self, a, word, end=None):
        """Force a·word = end (a relator when end is None), scanning from
        a forward and from end back and defining cosets as needed."""
        find, rows, parent, inv = self.find, self.rows, self.parent, self.inv
        n = len(word)
        while True:
            if parent[a] != a:
                a = find(a)
            b = a if end is None else end
            if parent[b] != b:
                b = find(b)
            i, f = 0, a
            while i < n:
                nxt = rows[f][word[i]]
                if nxt is None:
                    break
                f = nxt if parent[nxt] == nxt else find(nxt)
                i += 1
            if i == n:
                if f != b:
                    self.pending.append((f, b))
                    self.merge()
                return
            j = n - 1
            while j > i:
                prv = rows[b][inv[word[j]]]
                if prv is None:
                    break
                b = prv if parent[prv] == prv else find(prv)
                j -= 1
            if j == i:  # a deduction: f·s = b, and so b·s⁻¹ = f
                s = word[i]
                rows[f][s] = b
                cur = rows[b][inv[s]]
                if cur is None:
                    rows[b][inv[s]] = f
                elif find(cur) != f:
                    self.pending.append((cur, f))
                    self.merge()
                return
            self.define(f, word[i])


def _enumerate(presentation, base, steps, relations, cap: int) -> int:
    """Todd-Coxeter over named points, coset 0 being point base.  A step
    (p, word, q) defines point q as p·word; a relation (p, word, q) forces
    p·word = q.  Rounds scan the relations, the relators at every live coset,
    then define missing symbols; raises DidNotClose past cap cosets.

    The first round that defines no coset ends it.  Each scan in it ended
    with its word holding, by a full trace, a deduction or a merge, and
    later deductions and merges only add to what holds.  Every coset live
    at the end was live when its relators were scanned, and the last phase
    found it complete.  So the table is closed, and another round would
    change nothing."""
    inv, relators = presentation[:2]
    table = _CosetTable(inv, cap)
    rows, parent = table.rows, table.parent
    point = {base: 0}
    for p, word, q in steps:
        point[q] = table.trace(point[p], word)
    while True:
        defined = len(rows)
        for p, word, q in relations:
            table.scan_fill(point[p], word, point[q])
        if relators:
            for a in range(len(rows)):
                if parent[a] == a:
                    for r in relators:
                        table.scan_fill(a, r)
        for a in range(len(rows)):
            if parent[a] == a and None in rows[a]:
                for s in range(len(inv)):
                    if rows[a][s] is None:
                        table.define(a, s)
        if len(rows) == defined:
            return sum(1 for a, x in enumerate(parent) if a == x)


# ---------------------------------------------------------------------------
# tree balls

# The most nodes a tree ball may hold; balls grow as |G_v|^radius.
BALL_CAP = 100_000


def tree_ball(
    gog: GraphOfGroups,
    base: str,
    radius: int,
    letters: Optional[dict] = None,
) -> list:
    """Vertices of the Bass-Serre tree ball as (element, edge) paths.

    Children of a node at v are all (x, e) with x in the letter set of v
    and e an edge at v, except the backtracking (identity, reverse of
    the arriving edge).  Default letter sets are the full vertex groups.
    Raises UnboundedEnumeration before a layer that could take the ball
    past BALL_CAP nodes, and GogsepError on a negative radius.
    """
    if radius < 0:
        raise GogsepError(f"tree ball radius {radius} is negative")
    if letters is None:
        _require_finite(gog, "tree ball")
        letters = {
            v: list(gog.group_at(v).elements) for v in gog.graph.vertices
        }
    out, iota, rev = gog.graph._out, gog.graph._iota, gog.graph._rev
    nodes = [()]
    frontier = [((), base)]
    for _ in range(radius):
        children = sum(len(letters[v]) * len(out[v]) for _, v in frontier)
        if len(nodes) + children > BALL_CAP:
            raise UnboundedEnumeration(
                f"tree ball of radius {radius} would pass {BALL_CAP} nodes"
            )
        nxt = []
        for path, v in frontier:
            oracle = gog.group_at(v)
            back = rev[path[-1][1]] if path else None  # the way back
            for e in out[v]:
                for x in letters[v]:
                    if e == back and oracle.is_identity(x):
                        continue
                    child = path + ((x, e),)
                    nxt.append((child, iota[rev[e]]))
        nodes.extend(p for p, _ in nxt)
        frontier = nxt
    return nodes


def _path_image(m: DecoratedMorphism, path) -> list:
    """Target letters of a domain path (x1, e1) ... (xn, en), off the raw maps.

    Step i maps to (δ(~e_{i-1})⁻¹·x_i·δ(e_i), φ(e_i)); the first step has
    no left factor.
    """
    graph = m.domain.graph
    out = []
    prev = None
    for x, e in path:
        oracle = m.oracle_at(graph._iota[e])
        y = oracle.mul(x, m.delta[e])
        if prev is not None:
            y = oracle.mul(oracle.inv(m.delta[graph._rev[prev]]), y)
        out.append((y, m.edge_map[e]))
        prev = e
    return out


def _map_tree_node(m: DecoratedMorphism, path) -> tuple:
    """Image of a domain tree node; raises if the image path backtracks."""
    image = tuple(_path_image(m, path))
    rev = m.target.graph._rev
    for (_, e), (_, f), (y, g) in zip(path[1:], image, image[1:]):
        v = m.domain.graph.iota(e)
        if g == rev[f] and m.oracle_at(v).is_identity(y):
            raise NotAnImmersion(f"tree image backtracks along {e!r} at {v!r}")
    return image


def ball_map_check(
    m: DecoratedMorphism, radius: int, expect_cover: bool = False
) -> CheckReport:
    """Inject (or biject) a domain tree ball into the target tree ball.

    Domain letter sets are the vertex subgroups, so the domain tree is
    the Bass-Serre tree of the subgroup's graph of groups; an immersion
    must embed it into the target tree, a cover must match it exactly.
    """
    _require_finite(m.target, "ball map check")
    base = m.domain.base
    if base is None:
        base = sorted(m.domain.graph.vertices)[0]
    letters = {}
    for v in m.domain.graph.vertices:
        handle = m.vgroup_image[v]
        members = getattr(handle, "members", None)
        if members is None:
            raise UnboundedEnumeration(f"subgroup at {v!r} is not finite")
        letters[v] = sorted(members, key=handle.group.sort_key)
    violations = []
    domain_nodes = tree_ball(m.domain, base, radius, letters=letters)
    images = []
    for path in domain_nodes:
        try:
            images.append(_map_tree_node(m, path))
        except NotAnImmersion as exc:
            violations.append({"kind": "backtrack", "node": path, "detail": str(exc)})
    if len(set(images)) != len(images):
        violations.append({"kind": "not-injective", "radius": radius})
    if expect_cover:
        target_nodes = tree_ball(m.target, m.vertex_map[base], radius)
        if len(domain_nodes) != len(target_nodes):
            violations.append(
                {
                    "kind": "count",
                    "domain": len(domain_nodes),
                    "target": len(target_nodes),
                }
            )
        elif set(images) != set(target_nodes):
            violations.append({"kind": "not-onto", "radius": radius})
    return CheckReport(not violations, violations)


def _schreier_index(m: DecoratedMorphism, base: str, cap: int) -> int:
    """Index of the morphism's subgroup, by Todd-Coxeter on short relations.

    Point v is the coset 0·(image of the BFS tree path from base to v).  A
    tree edge e: v -> w defines w as v·δ(e)·φ(e)·δ(~e)⁻¹, a non-tree edge
    pair forces that equation, and a vertex-subgroup generator s forces
    v·s = v: the subgroup the cover's Schreier loops generate.  Each
    distinct (φ(e), δ(e), δ(~e)) is checked and numbered once per call.
    """
    graph, target = m.domain.graph, m.target
    if not graph.has_vertex(base):
        raise GogsepError(f"unknown vertex {base!r}")
    presentation = _presentation(target, m.vertex_map[base])
    _, _, stable, letter = presentation
    reach, tree = _spanning_tree(graph, base)
    iota, rev = graph._iota, graph._rev
    edge_map, delta, vertex_map = m.edge_map, m.delta, m.vertex_map
    words = {}  # (φ(e), δ(e), δ(~e)) -> (its ends in the target, its word)

    def edge(e):  # v·image(e) = w, for e: v -> w
        back = rev[e]
        v, w = iota[e], iota[back]
        key, ends = (edge_map[e], delta[e], delta[back]), (vertex_map[v], vertex_map[w])
        known = words.get(key)
        if known is None or known[0] != ends:
            (f, out, d), (x, y) = key, ends
            if (target.graph.iota(f), target.graph.tau(f)) != ends:
                raise GogsepError(f"image {f!r} of {e!r} does not run {x!r} to {y!r}")
            target.group_at(x).check(out)
            target.group_at(y).check(d)
            word = letter[x][out] + stable[f] + letter[y][target.group_at(y).inv(d)]
            known = words[key] = (ends, word)
        return v, known[1], w

    steps = [edge(e) for e in reach.values() if e]
    relations = []
    for v in sorted(graph.vertices):
        for s in m.vgroup_image[v].generators:
            m.oracle_at(v).check(s)
            relations.append((v, letter[vertex_map[v]][s], v))
    pairs = sorted(e for e in iota if e[:1] != "~" and e not in tree)  # as edge_pairs()
    relations.extend(edge(e) for e in pairs)
    return _enumerate(presentation, base, steps, relations, cap)


def crosscheck(
    cert: SeparationCertificate,
    radius: int = 2,
    cap: int = 20000,
) -> VerificationReport:
    """Validate a certificate against machinery it was not built from.

    Re-runs the certificate checks, then compares the declared degree
    with a Todd-Coxeter enumeration of the cover's loop subgroup and
    embeds a tree ball.  Steps needing finite vertex groups are marked
    skipped on targets with integer or free kinds, and both fail unrun when
    the certificate's structure check failed, since they read its data
    unchecked.
    """
    transcript = list(verify_certificate(cert).transcript)
    target = cert.target
    if not transcript[0]["ok"]:  # the structure step
        enum = ball = (False, "not run: the certificate is malformed")
    elif all(target.group_at(v).kind == "finite" for v in target.graph.vertices):
        try:
            idx = _schreier_index(cert.cover, cert.base_vertex, cap)
            detail = f"enumerated index {idx}, declared degree {cert.degree}"
            enum = (idx == cert.degree, detail)
        except DidNotClose as exc:
            enum = (False, str(exc))
        report = ball_map_check(cert.cover, radius, expect_cover=True)
        ball = (report.ok, f"radius {radius}" if report.ok else report.violations[:3])
    else:
        enum = ball = (True, "skipped: target has infinite vertex groups")
    for check, (ok, detail) in (("coset-enumeration", enum), ("tree-ball", ball)):
        transcript.append({"check": check, "ok": ok, "detail": detail})
    return VerificationReport(all(t["ok"] for t in transcript), transcript)
