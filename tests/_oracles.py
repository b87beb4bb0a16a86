"""Independent reference computations used to pin expected test values.

These deliberately re-derive results from first principles (per-edge
scans, parity counting, closed-form counts) without touching the library
internals they are checking against, or keep the predecessor of a
replaced library algorithm as a differential reference.
"""

from itertools import combinations

from warppoly import BraidWord, GaussDiagram, Pass, WarpPoly, moves
from warppoly.characterize import (
    REJECT_BAD_ENDS,
    REJECT_GAP,
    REJECT_NON_UNIT_SPAN_ZERO,
    REJECT_SUM_TOO_SMALL,
    REJECT_ZERO,
    CharForm,
    Rejection,
    encode_form,
    one_bridge_diagram,
)
from warppoly.errors import NotAKnotError, NotConstructibleError, VerificationFailedError
from warppoly.warping import warping_polynomial


def brute_degree(diagram: GaussDiagram, edge: int) -> int:
    """Warping degree of edge ``edge`` by a direct definition-level scan."""
    passes = diagram.passes
    n = len(passes)
    first_under = 0
    met = set()
    for step in range(1, n + 1):
        crossing, strand, _ = passes[(edge + step) % n]
        if crossing not in met:
            met.add(crossing)
            if strand == "U":
                first_under += 1
    return first_under


def brute_labeling(diagram: GaussDiagram) -> tuple[int, ...]:
    """Per-edge O(c^2) labeling: no propagation shortcut."""
    n = len(diagram.passes)
    if n == 0:
        return (0,)
    return tuple(brute_degree(diagram, j) for j in range(n))


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def code_count(c: int) -> int:
    """Number of unsigned codes with ``c`` crossings: (2c-1)!! * 2^c."""
    if c == 0:
        return 1
    return double_factorial(2 * c - 1) * 2**c


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def staircase_forms(max_sum: int) -> list[CharForm]:
    """Every staircase form whose m_i sum to at most ``max_sum``: each
    composition m of each total, with every k the sum constraint allows."""
    forms = [CharForm(0, ())]
    for total in range(1, max_sum + 1):
        for l in range(1, total + 1):
            for m in _compositions(total, l):
                for k in range(0, total - l + 1):
                    forms.append(CharForm(k, m))
    return forms


def phase_dealternating(diagram: GaussDiagram) -> int | None:
    """Dealternating number via the two-phase parity argument.

    An alternating assignment fixes markers by position parity (two
    phases).  A crossing change flips both passes of one crossing, so a
    phase is reachable iff every crossing has its passes on opposite
    parities, and then the crossings needing a change are determined.
    Returns None when unreachable.
    """
    positions: dict[int, list[int]] = {}
    for i, p in enumerate(diagram.passes):
        positions.setdefault(p.crossing, []).append(i)
    if any((a + b) % 2 == 0 for a, b in positions.values()):
        return None
    need_phase_a = 0  # phase a: even positions over
    for a, b in positions.values():
        over_pos = a if diagram.passes[a].strand == "O" else b
        if over_pos % 2 == 1:
            need_phase_a += 1
    return min(need_phase_a, len(positions) - need_phase_a)


def subset_dealternating(diagram: GaussDiagram) -> int | None:
    """Dealternating number by breadth-first search over crossing subsets:
    the exponential predecessor of :func:`warppoly.dealternating_number`.
    Returns None when no subset makes the code alternating."""
    markers = [p.strand == "O" for p in diagram.passes]
    positions: dict[int, list[int]] = {}
    for i, p in enumerate(diagram.passes):
        positions.setdefault(p.crossing, []).append(i)
    ids = sorted(positions)
    n = len(markers)
    for size in range(len(ids) + 1):
        for subset in combinations(ids, size):
            flipped = markers[:]
            for x in subset:
                for i in positions[x]:
                    flipped[i] = not flipped[i]
            if all(flipped[i] != flipped[i - 1] for i in range(n)):
                return size
    return None


def _rotation_key(passes, start):
    n = len(passes)
    renumber: dict[int, int] = {}
    key = []
    for k in range(n):
        p = passes[(start + k) % n]
        if p.crossing not in renumber:
            renumber[p.crossing] = len(renumber) + 1
        key.append(
            (
                0 if p.strand == "O" else 1,
                renumber[p.crossing],
                {None: 0, "+": 1, "-": 2}[p.sign],
            )
        )
    return key


def rotation_canonicalize(diagram: GaussDiagram) -> GaussDiagram:
    """Canonical form by building the renumbered key of every rotation and
    taking the first least one: the O(n^2) predecessor of
    :func:`warppoly.canonicalize`."""
    passes = diagram.passes
    n = len(passes)
    if n == 0:
        return diagram
    best = min(range(n), key=lambda s: _rotation_key(passes, s))
    renumber: dict[int, int] = {}
    out = []
    for k in range(n):
        p = passes[(best + k) % n]
        if p.crossing not in renumber:
            renumber[p.crossing] = len(renumber) + 1
        out.append(Pass(renumber[p.crossing], p.strand, p.sign))
    return GaussDiagram(tuple(out))


def remap_connected_sum(
    diagram: GaussDiagram, edge: int, other: GaussDiagram, other_edge: int
) -> GaussDiagram:
    """Connected sum with its own first-appearance id remap of the spliced
    summand, independent of the renumbering shared with
    :func:`warppoly.canonicalize`.  Both summands need crossings and the
    edges must be in range."""
    n = len(other.passes)
    fresh = max(p.crossing for p in diagram.passes)
    remap: dict[int, int] = {}
    segment = []
    for k in range(n):
        p = other.passes[(other_edge + 1 + k) % n]
        if p.crossing not in remap:
            fresh += 1
            remap[p.crossing] = fresh
        segment.append(Pass(remap[p.crossing], p.strand, p.sign))
    passes = diagram.passes
    return GaussDiagram(passes[: edge + 1] + tuple(segment) + passes[edge + 1 :])


def scan_recognize(poly: WarpPoly) -> CharForm | Rejection:
    """Staircase recognition reading each coefficient through a fresh
    ``as_dict()``: the O(l^2) predecessor of :func:`warppoly.recognize`."""

    def coeff(degree):
        return poly.as_dict().get(degree, 0)

    if poly.is_zero:
        return Rejection(REJECT_ZERO)
    if not poly.gap_free():
        return Rejection(REJECT_GAP, "missing interior degree")
    k = poly.ldeg()
    l = poly.span()
    if l == 0:
        if k == 0 and coeff(0) == 1:
            return CharForm(0, ())
        return Rejection(REJECT_NON_UNIT_SPAN_ZERO, f"span-0 polynomial is {poly}")
    m = [coeff(k)]
    for j in range(1, l):
        nxt = coeff(k + j) - m[-1]
        if nxt < 1:
            return Rejection(REJECT_BAD_ENDS, f"m_{j} would be {nxt}")
        m.append(nxt)
    if coeff(k + l) != m[-1]:
        return Rejection(
            REJECT_BAD_ENDS,
            f"top coefficient {coeff(k + l)} != m_{l - 1} = {m[-1]}",
        )
    if sum(m) < k + l:
        return Rejection(REJECT_SUM_TOO_SMALL, f"sum {sum(m)} < {k + l}")
    return CharForm(k, tuple(m))


def closure_components(n: int, letters) -> int:
    """Components of a braid closure, by tracing every one of the n strands."""
    positions = list(range(n))
    for w in letters:
        a = abs(w)
        positions[a - 1], positions[a] = positions[a], positions[a - 1]
    cycles, seen = 0, set()
    for start in range(n):
        p = start
        if p not in seen:
            cycles += 1
        while p not in seen:
            seen.add(p)
            p = positions[p]
    return cycles


def kink_loop_span_witness(c: int, s: int) -> GaussDiagram:
    """Span witness built one over-first kink at a time, relabeling after
    each to find the lowest edge labeled 0: the O(c^2) predecessor of
    :func:`warppoly.span_witness`."""
    if c == 0 and s == 0:
        return GaussDiagram(())
    if not (c == s >= 1 or c > s >= 2):
        raise NotConstructibleError(f"no recipe for c={c}, span={s}")
    diagram = GaussDiagram(
        tuple(Pass(i, "O") for i in range(1, s + 1))
        + tuple(Pass(i, "U") for i in range(s, 0, -1))
    )
    for _ in range(c - s):
        edge = moves.find_edge_with_label(diagram, 0)
        diagram = moves.insert_kink_over_first(diagram, edge)
    return diagram


def _cycle_count(perm: dict[int, int]) -> int:
    cycles, seen = 0, set()
    for s in perm:
        if s not in seen:
            cycles += 1
            while s not in seen:
                seen.add(s)
                s = perm[s]
    return cycles


def two_path_braid_closure(word: BraidWord) -> GaussDiagram:
    """Braid closure refusing a word on more strands than letters + 1 from
    its touched positions alone, and simulating any other word on a dense
    list of all n positions: the two-path predecessor of
    :func:`warppoly.braid_closure`."""
    n = word.n
    if n > len(word.letters) + 1:
        at: dict[int, int] = {}
        for w in word.letters:
            a = abs(w)
            at[a], at[a + 1] = at.get(a + 1, a + 1), at.get(a, a)
        cycles = n - len(at) + _cycle_count(at)
        raise NotAKnotError(f"closure has {cycles} components, not 1")
    positions = list(range(1, n + 1))
    recorded: dict[int, list[Pass]] = {s: [] for s in range(1, n + 1)}
    for step, w in enumerate(word.letters, start=1):
        a = abs(w)
        upper, lower = positions[a - 1], positions[a]
        sign = "+" if w > 0 else "-"
        upper_strand = "O" if w > 0 else "U"
        recorded[upper].append(Pass(step, upper_strand, sign))
        recorded[lower].append(Pass(step, "U" if upper_strand == "O" else "O", sign))
        positions[a - 1], positions[a] = positions[a], positions[a - 1]
    end_position = {positions[p - 1]: p for p in range(1, n + 1)}
    passes: list[Pass] = []
    strand = 1
    visited = set()
    while strand not in visited:
        visited.add(strand)
        passes.extend(recorded[strand])
        strand = end_position[strand]
    if len(visited) != n:
        raise NotAKnotError(f"closure has {_cycle_count(end_position)} components, not 1")
    return GaussDiagram(tuple(passes))


def split_first_witness(form: CharForm) -> GaussDiagram:
    """Witness that splits every m_i into its under-first and over-first
    kink counts before inserting any kink: the predecessor of
    :func:`warppoly.witness`, without its size bound."""
    if form.l == 0:
        return GaussDiagram(())
    remaining = form.k
    under_counts, over_counts = [], []
    for mi in form.m:
        take = min(mi - 1, remaining)
        under_counts.append(take)
        over_counts.append(mi - 1 - take)
        remaining -= take
    assert remaining == 0
    diagram = one_bridge_diagram(form.l)
    inserted = 0
    for i in range(form.l):
        for _ in range(under_counts[i]):
            edge = moves.find_edge_with_label(diagram, inserted + i + 1)
            diagram = moves.insert_kink_under_first(diagram, edge)
            inserted += 1
    for i in range(form.l):
        for _ in range(over_counts[i]):
            edge = moves.find_edge_with_label(diagram, form.k + i)
            diagram = moves.insert_kink_over_first(diagram, edge)
    expected = encode_form(form)
    actual = warping_polynomial(diagram)
    if actual != expected:
        raise VerificationFailedError(f"witness produced {actual}, wanted {expected}")
    return diagram
