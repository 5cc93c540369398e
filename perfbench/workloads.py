"""Seeded instance generators for the benchmark workloads.

Every instance is plain JSON data: a graph-of-groups document, the base
vertex, generator words of H, an element g outside H and membership
queries with their expected answers.  The program under test only ever
sees these documents.  The same (workload, seed) always gives the same
documents: every word of instance i draws from its own ``random.Random``
stream, keyed by workload, seed, i and the word's role.  The rungs of the
ladder share these streams, so instance i at size 2n extends the words of
instance i at size n, and growth per doubling compares one family.

g lies outside H by construction or by a screen that runs here, without
gogsep: a Stallings fold over a free group (``free_member``) for the two
workloads whose subgroups live in a free group, and a parity homomorphism
for ``f2z-mixed``.  The same arguments fix the expected membership
answers: a product of generators lies in H, and h*g does not.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

QUERIES = 24  # per instance; half members, half non-members


@dataclass
class Instance:
    workload: str
    size: int
    index: int
    target: dict
    base: str
    generators: list
    element: dict
    queries: list  # [(word document, expected membership)]
    redrawn: int  # draws of g (or y) rejected because they fell in H


# ---------------------------------------------------------------------------
# free words: tuples of nonzero ints, letter k for the k-th basis element


def free_mul(a, b):
    out = list(a)
    for x in b:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def free_inv(a):
    return tuple(-x for x in reversed(a))


def random_reduced(rng, length, rank=2):
    word = []
    while len(word) < length:
        x = rng.choice([k for k in range(-rank, rank + 1) if k])
        if not word or word[-1] != -x:
            word.append(x)
    return tuple(word)


def free_member(gens, w):
    """Is the free word w in <gens>?  A Stallings fold with union-find."""
    parent = [0]
    adj = [{}]
    pending = []

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    def half(s, x, t):
        s = find(s)
        cur = adj[s].get(x)
        if cur is None:
            adj[s][x] = t
        elif find(cur) != find(t):
            pending.append((cur, t))

    for g in gens:
        cur = 0
        for i, x in enumerate(g):
            if i == len(g) - 1:
                nxt = 0
            else:
                parent.append(len(parent))
                adj.append({})
                nxt = len(parent) - 1
            half(cur, x, nxt)
            half(nxt, -x, cur)
            cur = nxt
    while pending:
        a, b = (find(s) for s in pending.pop())
        if a == b:
            continue
        parent[b] = a
        moved, adj[b] = adj[b], {}
        for x, t in moved.items():
            half(a, x, t)
    s = 0
    for x in w:
        t = adj[find(s)].get(x)
        if t is None:
            return False
        s = t
    return find(s) == find(0)


def _products(rng, gens, mul, inv, count):
    """``count`` products of 2-4 generators^+-1, never a factor next to its inverse."""
    out = []
    for _ in range(count):
        word, last = None, None
        for _ in range(rng.randint(2, 4)):
            k, sign = rng.randrange(len(gens)), rng.choice((1, -1))
            while (k, -sign) == last:
                k, sign = rng.randrange(len(gens)), rng.choice((1, -1))
            last = (k, sign)
            factor = gens[k] if sign == 1 else inv(gens[k])
            word = factor if word is None else mul(word, factor)
        out.append(word)
    return out


def _queries(rng, gens, g, mul, inv, to_doc):
    members = _products(rng, gens, mul, inv, QUERIES // 2)
    others = [mul(h, g) for h in _products(rng, gens, mul, inv, QUERIES // 2)]
    return [(to_doc(w), True) for w in members] + [(to_doc(w), False) for w in others]


def _load(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# rose2-random: graph-bound.  F2 as a two-petal rose over a trivial vertex
# group, so oracle arithmetic is trivial and the work lands in Graph scans,
# trim_core, completion, cover checks and loop lifting; few folds happen.


def _rose_doc(w):
    flat = ["1"]
    for x in w:
        flat += [("p", "q")[abs(x) - 1] if x > 0 else ("~p", "~q")[abs(x) - 1], "1"]
    return {"start": "o", "word": flat}


def rose2(stream, size):
    gens = [random_reduced(stream(f"h{k}"), size) for k in range(3)]
    redrawn = 0
    g = random_reduced(stream("g0"), size)
    while free_member(gens, g):
        redrawn += 1
        g = random_reduced(stream(f"g{redrawn}"), size)
    queries = _queries(stream("q"), gens, g, free_mul, free_inv, _rose_doc)
    return (_load(ROOT / "instances" / "rose2.json"), "o",
            [_rose_doc(w) for w in gens], _rose_doc(g), queries, redrawn)


# ---------------------------------------------------------------------------
# pslz-conjugates: fold-bound.  In C2*C3 = PSL(2,Z) the commutators
# P = a b a b2 and Q = a b2 a b are a free basis of the commutator subgroup,
# so words in P, Q are free words, each letter two (a e b^+-1 ~e) blocks.
# H = <u x_i u^-1> shares a long prefix u, which folding collapses into one
# stem; the folded core, the certificate degree and the verify work stay
# small, and enlargement has nothing to do.  Sizes count the blocks of u.

_LETTER = {
    1: ["a", "e", "b", "~e", "a", "e", "b2", "~e", "1"],
    -1: ["1", "e", "b", "~e", "a", "e", "b2", "~e", "a"],
    2: ["a", "e", "b2", "~e", "a", "e", "b", "~e", "1"],
    -2: ["1", "e", "b2", "~e", "a", "e", "b", "~e", "a"],
}
_C2 = {("1", "1"): "1", ("1", "a"): "a", ("a", "1"): "a", ("a", "a"): "1"}


def _pslz_doc(w):
    flat = ["1"]
    for x in w:
        letter = _LETTER[x]
        flat[-1] = _C2[(flat[-1], letter[0])]
        flat += letter[1:]
    return {"start": "u", "word": flat}


def pslz(stream, size):
    def positive(rng, n):
        return tuple(rng.choice((1, 2)) for _ in range(n))

    u = positive(stream("u"), size // 2)
    xs = [positive(stream(f"x{k}"), 4) for k in range(3)]
    redrawn = 0
    y = positive(stream("y0"), 4)
    while free_member(xs, y):  # y in <x_i> iff u y u^-1 in H
        redrawn += 1
        y = positive(stream(f"y{redrawn}"), 4)

    def conj(w):
        return free_mul(free_mul(u, w), free_inv(u))

    gens = [conj(x) for x in xs]
    g = conj(y)
    queries = _queries(stream("q"), gens, g, free_mul, free_inv, _pslz_doc)
    return (_load(ROOT / "instances" / "pslz.json"), "u",
            [_pslz_doc(w) for w in gens], _pslz_doc(g), queries, redrawn)


# ---------------------------------------------------------------------------
# f2z-mixed: oracle-bound.  F2*Z with a free vertex group at the base: the
# domain stays at about 20 vertices while the free vertex subgroups carry
# large automata, so time goes to free-group arithmetic, coset tests and
# separation.  Integer letters feed IntSubgroup.separate's modulus.  The
# target has infinite vertex groups, so crosscheck skips the verifier's
# coset enumeration and tree balls.
#
# An element is (f0, n1, f1, ..., nk, fk): free words fi at x, integers ni at
# y, joined by e and ~e.  Sending Z onto Z/2 and F2 to 0 is a homomorphism;
# every generator of H has even integer sum and g has odd sum, so g and
# every h*g lie outside H.

_F2Z_LOOPS = 4  # integer syllables per loop


def _f2z_mul(a, b):
    return a[:-1] + (free_mul(a[-1], b[0]),) + b[1:]


def _f2z_inv(a):
    return tuple(free_inv(x) if i % 2 == 0 else -x for i, x in enumerate(reversed(a)))


def _free_text(w):
    if not w:
        return "1"
    return ".".join(f"x{abs(x)}" + ("-" if x < 0 else "") for x in w)


def _f2z_doc(w):
    flat = [_free_text(w[0])]
    for n, f in zip(w[1::2], w[2::2]):
        flat += ["e", str(n), "~e", _free_text(f)]
    return {"start": "x", "word": flat}


def f2z(stream, size):
    def loop(tag, parity):
        rng = stream(tag)
        ns = [rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(_F2Z_LOOPS)]
        if sum(ns) % 2 != parity:  # move |n| one step within [1, 5]
            ns[-1] += (1 if abs(ns[-1]) < 5 else -1) * (1 if ns[-1] > 0 else -1)
        parts = [random_reduced(stream(f"{tag}f0"), size)]
        for j, n in enumerate(ns, start=1):
            parts += [n, random_reduced(stream(f"{tag}f{j}"), size)]
        return tuple(parts)

    gens = [(random_reduced(stream(f"b{k}"), 6),) for k in range(3)]
    gens += [loop(f"l{k}", 0) for k in range(3)]
    g = loop("g", 1)
    queries = _queries(stream("q"), gens, g, _f2z_mul, _f2z_inv, _f2z_doc)
    return (_load(HERE / "targets" / "f2z.json"), "x",
            [_f2z_doc(w) for w in gens], _f2z_doc(g), queries, 0)


GENERATORS = {"rose2-random": rose2, "pslz-conjugates": pslz, "f2z-mixed": f2z}


def make_instance(workload, seed, size, index):
    def stream(tag):
        return random.Random(f"{workload}|{seed}|{index}|{tag}")

    target, base, gens, element, queries, redrawn = GENERATORS[workload](stream, size)
    return Instance(workload, size, index, target, base, gens, element, queries, redrawn)
