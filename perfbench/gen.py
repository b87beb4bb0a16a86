"""Seeded inputs for the CLI workloads, and the reference answers they are checked against.

Nothing here imports ``warppoly``: the inputs reach the program only as argv
text, and the references are recomputed from the paper's definitions so that
a wrong answer cannot agree with itself.

A diagram is a list of passes ``(crossing, over, sign)`` with ``sign`` one of
``None``, ``"+"`` or ``"-"``.  Edge ``j`` follows pass ``j``.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

QUERY_COMMANDS = (
    "poly", "label", "span", "degree", "monotone", "alternating", "onebridge",
    "fg", "cc", "mirror", "reverse", "kink", "connect", "checkpoly",
)
CANONICAL_COMMANDS = ("mirror", "reverse", "cc", "kink", "connect")

# Sizes sit at fixed quantiles of a log-uniform law, so every seed gets the
# same size profile and the seed only changes the diagrams.  ``query`` makes
# 14 * 8 = 112 calls, enough for ten samples above p90; ``construct`` makes
# 80 calls of each of its three kinds.  The tiny sizes serve the self-test.
SIZES = {
    False: {"query": (1_000, 100_000), "query_strata": 8, "canonical": (50, 400),
            "witness": (50, 400), "dalt": (8, 16), "construct_strata": 80},
    True: {"query": (10, 100), "query_strata": 1, "canonical": (8, 32),
           "witness": (8, 32), "dalt": (4, 8), "construct_strata": 10},
}


def log_strata(lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes at the mid-quantiles of a log-uniform law on [lo, hi]."""
    ratio = hi / lo
    return [round(lo * ratio ** ((j + 0.5) / count)) for j in range(count)]


# ---------------------------------------------------------------- diagrams

def token(p) -> str:
    c, o, s = p
    return f"{'O' if o else 'U'}{c}{s or ''}"


def gauss_text(passes) -> str:
    return " ".join(map(token, passes))


def joined_is(text: str, tokens, chunk: int = 4096) -> bool:
    """Whether ``text`` is ``" ".join(tokens)``, compared ``chunk`` tokens at a time.

    The joined string is never built whole, so checking a large output
    holds little memory beyond the output itself.
    """
    tokens = iter(tokens)
    pos = 0
    while piece := list(itertools.islice(tokens, chunk)):
        part = (" " if pos else "") + " ".join(piece)
        if not text.startswith(part, pos):
            return False
        pos += len(part)
    return pos == len(text)


def parse_gauss_text(text: str):
    out = []
    for tok in text.split():
        sign = tok[-1] if tok[-1] in "+-" else None
        body = tok[:-1] if sign else tok
        if body[0] not in "OU" or not body[1:].isdigit():
            raise ValueError(f"bad token {tok!r}")
        out.append((int(body[1:]), body[0] == "O", sign))
    return out


def _cycles(perm: list[int]) -> list[int]:
    """Cycle index of each element of a permutation of 0..n-1."""
    label = [-1] * len(perm)
    k = 0
    for start in range(len(perm)):
        if label[start] >= 0:
            continue
        x = start
        while label[x] < 0:
            label[x] = k
            x = perm[x]
        k += 1
    return label


def knot_word(rng: random.Random, strands: int, length: int, positive: bool) -> list[int]:
    """A random braid word whose closure is a knot.

    Letters are drawn at random, then letters are appended that each merge
    two cycles of the strand permutation until a single cycle is left.
    """
    word = []
    for _ in range(length):
        a = rng.randint(1, strands - 1)
        word.append(a if positive or rng.random() < 0.5 else -a)
    perm = list(range(strands))  # position -> strand ending there, 0-based
    for w in word:
        a = abs(w) - 1
        perm[a], perm[a + 1] = perm[a + 1], perm[a]
    while True:
        label = _cycles(perm)
        if len(set(label)) == 1:
            return word
        a = next(i for i in range(strands - 1) if label[i] != label[i + 1])
        word.append(a + 1 if positive or rng.random() < 0.5 else -(a + 1))
        perm[a], perm[a + 1] = perm[a + 1], perm[a]


def closure(strands: int, word) -> list:
    """Gauss code of a braid closure, in the CLI's documented convention.

    The letter at step ``s`` makes crossing ``s``; on a positive letter the
    strand entering at the lower position passes over; the traversal starts
    with the strand that begins at position 1.
    """
    positions = list(range(1, strands + 1))
    recorded = {s: [] for s in positions}
    for step, w in enumerate(word, start=1):
        a = abs(w)
        upper, lower = positions[a - 1], positions[a]
        sign = "+" if w > 0 else "-"
        recorded[upper].append((step, w > 0, sign))
        recorded[lower].append((step, w < 0, sign))
        positions[a - 1], positions[a] = lower, upper
    end = {positions[p - 1]: p for p in range(1, strands + 1)}
    passes, strand = [], 1
    for _ in range(strands):
        passes.extend(recorded[strand])
        strand = end[strand]
    return passes


def one_bridge(rng: random.Random, c: int) -> list:
    """Overs ``O1..Oc`` then the unders in random order, rotated at random."""
    unders = list(range(1, c + 1))
    rng.shuffle(unders)
    passes = [(i, True, None) for i in range(1, c + 1)] + [(i, False, None) for i in unders]
    r = rng.randrange(2 * c)
    return passes[r:] + passes[:r]


def even_code(rng: random.Random, c: int, odd_overs: int) -> list:
    """An evenness-passing code with ``odd_overs`` over passes at odd positions.

    Each crossing pairs an even slot with an odd slot, so its two passes are
    an even number of passes apart, and its dealternating number is
    ``min(odd_overs, c - odd_overs)``.
    """
    odd_slots = list(range(1, 2 * c, 2))
    rng.shuffle(odd_slots)
    flip = set(rng.sample(range(c), odd_overs))
    passes = [None] * (2 * c)
    for k, (even, odd) in enumerate(zip(range(0, 2 * c, 2), odd_slots)):
        over_odd = k in flip
        passes[even] = (k, not over_odd, None)
        passes[odd] = (k, over_odd, None)
    return renumber_by_appearance(passes)


def renumber_by_appearance(passes) -> list:
    ids: dict[int, int] = {}
    return [(ids.setdefault(c, len(ids) + 1), o, s) for c, o, s in passes]


def rotate_renumber(rng: random.Random, passes):
    """A random rotation and renumbering: the new code, the rotation offset and the id map."""
    n = len(passes)
    r = rng.randrange(n)
    ids = sorted({c for c, _, _ in passes})
    perm = ids[:]
    rng.shuffle(perm)
    remap = dict(zip(ids, perm))
    rotated = [(remap[c], o, s) for c, o, s in passes[r:] + passes[:r]]
    return rotated, r, remap


# ---------------------------------------------------------------- references

def labels(passes) -> list[int]:
    """Warping degree of every edge, from the definition."""
    if not passes:
        return [0]
    seen = set()
    anchor = 0
    for c, over, _ in passes:
        if c not in seen:
            seen.add(c)
            anchor += not over
    out, cur = [], anchor
    for _, over, _ in passes:
        cur += 1 if over else -1
        out.append(cur)
    return out


def poly_of(passes) -> Counter:
    return Counter(labels(passes))


def shift(p: Counter, k: int) -> Counter:
    return Counter({d + k: v for d, v in p.items()})


def reflect(p: Counter, c: int) -> Counter:
    return Counter({c - d: v for d, v in p.items()})


def value_at(p: Counter, x: int) -> int:
    return sum(v * x**d for d, v in p.items())


def parse_poly_text(text: str) -> Counter:
    """Read ``1+2t+2t^2+t^3`` or list form ``k:c0,c1,..``."""
    out: Counter = Counter()
    text = text.strip()
    if ":" in text:
        head, _, tail = text.partition(":")
        for j, co in enumerate(tail.split(",")):
            if int(co):
                out[int(head) + j] += int(co)
        return out
    for term in text.split("+"):
        coeff, t, exp = term.partition("t")
        degree = 0 if not t else (int(exp[1:]) if exp else 1)
        if exp and not exp.startswith("^"):
            raise ValueError(f"bad term {term!r}")
        out[degree] += int(coeff) if coeff else 1
    return out


def list_form(p: Counter) -> str:
    lo, hi = min(p), max(p)
    return f"{lo}:" + ",".join(str(p[d]) for d in range(lo, hi + 1))


def term_form(p: Counter) -> str:
    parts = []
    for d in sorted(p):
        v = p[d]
        head = str(v) if d == 0 or v != 1 else ""
        parts.append(head + ("" if d == 0 else "t" if d == 1 else f"t^{d}"))
    return "+".join(parts)


def flipped(p):
    c, over, sign = p
    return (c, not over, None if sign is None else ("-" if sign == "+" else "+"))


def crossing_change(passes, x):
    return [flipped(p) if p[0] == x else p for p in passes]


def kink(passes, edge, over_first):
    fresh = max(c for c, _, _ in passes) + 1
    pair = [(fresh, over_first, None), (fresh, not over_first, None)]
    return passes[: edge + 1] + pair + passes[edge + 1:]


def splice(left, edge, right, edge2):
    fresh = max(c for c, _, _ in left)
    remap: dict[int, int] = {}
    n = len(right)
    seg = []
    for k in range(n):
        c, o, s = right[(edge2 + 1 + k) % n]
        if c not in remap:
            fresh += 1
            remap[c] = fresh
        seg.append((remap[c], o, s))
    return left[: edge + 1] + seg + left[edge + 1:]


def transform(cmd, passes, params):
    """The diagram a code-emitting subcommand prints (before canonicalizing)."""
    if cmd == "mirror":
        return [flipped(p) for p in passes]
    if cmd == "reverse":
        return passes[::-1]
    if cmd == "cc":
        return crossing_change(passes, params["crossing"])
    if cmd == "kink":
        return kink(passes, params["edge"], params["type"] == "1a")
    raise ValueError(cmd)


def is_first_appearance_numbered(passes) -> bool:
    seen: dict[int, int] = {}
    return all(seen.setdefault(c, len(seen) + 1) == c for c, _, _ in passes)


def staircase(k: int, m) -> Counter:
    """The polynomial of the (k, l, m) form: ``sum m_i (t^{k+i} + t^{k+i+1})``."""
    out: Counter = Counter()
    for i, mi in enumerate(m):
        out[k + i] += mi
        out[k + i + 1] += mi
    return out if m else Counter({0: 1})


def dealternating(passes) -> int:
    """The two-phase parity count: crossing changes to reach either alternation."""
    odd = sum(1 for i, (_, over, _) in enumerate(passes) if over and i % 2)
    c = len(passes) // 2
    return min(odd, c - odd)


def fg_split(passes, x):
    """``f``: labels of the edges from the over pass of ``x`` up to its under pass; ``g``: the rest."""
    n = len(passes)
    over = next(i for i, (c, o, _) in enumerate(passes) if c == x and o)
    under = next(i for i, (c, o, _) in enumerate(passes) if c == x and not o)
    lab = labels(passes)
    f = Counter(lab[(over + k) % n] for k in range((under - over) % n))
    return f, Counter(lab) - f


def predicted_change(passes, x) -> Counter:
    """``t g + f / t``: the polynomial after changing crossing ``x``."""
    f, g = fg_split(passes, x)
    return shift(g, 1) + shift(f, -1)
