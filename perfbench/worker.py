"""One benchmark workload, run in a process of its own.

Started by ``run.py``; prints ``READY <monotonic time> <bare start seconds>``
just before the first timed call and ``RESULT <json>`` at the end.  With
``--setup-only`` it exits after ``READY``, so the launcher can time set-up
several times.

Untraced runs repeat passes over the workload while the next pass is
predicted to end within ``--seconds`` of wall time (at least one pass).
Traced runs time one traced pass, with the span wrappers from ``spans.py``,
between two untraced ones; every count is per pass.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import clock
import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

WORKLOADS = ("sweep", "splice", "query", "construct")

# Library calls per pass of the exhaustive workloads; their counts are pinned.
SWEEP_CALLS = {
    False: {
        "sweep": (("run_property_suite", 4, 1), ("almost_alternating_scan", 4, None)),
        "splice": (("run_property_suite", 3, 3),),
    },
    True: {
        "sweep": (("run_property_suite", 2, 1), ("almost_alternating_scan", 2, None)),
        "splice": (("run_property_suite", 2, 2),),
    },
}

_COMMON = {
    "diagram.validate", "laurent.normalize", "laurent.counts_to_poly",
    "warping.labeling", "warping.warping_polynomial", "moves.insert_kink",
    "moves.connected_sum", "characterize.recognize", "diagram.mirror",
    "diagram.crossing_change",
}
_SEARCH = {
    "search.run_property_suite", "search.enumerate_diagrams",
    "search.dealternating_number", "warping.fg_decomposition",
    "warping.predict_crossing_change",
}
# Boundaries each workload must reach; a zero here is a missed binding.
COVERAGE = {
    "sweep": _COMMON | _SEARCH | {"search.almost_alternating_scan"},
    "splice": _COMMON | _SEARCH,
    "query": _COMMON | {
        "cli.main", "notation.parse_gauss", "notation.braid_closure",
        "notation.parse_poly", "warping.fg_decomposition",
        "warping.predict_crossing_change",
    },
    "construct": _COMMON | {
        "cli.main", "notation.parse_gauss", "notation.canonicalize",
        "notation.parse_poly", "moves.find_edge_with_label",
        "characterize.witness", "search.dealternating_number",
    },
}


def call_key(name, c, pairs) -> str:
    return f"{name}({c})" if pairs is None else f"{name}({c}, pair_max_crossings={pairs})"


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class PeakWatch:
    """Tells whether the peak RSS was reached inside a library call.

    ``ru_maxrss`` is read just before and just after every timed call.  The
    highest reading after a call that raised it is the peak the library
    reached; anything above it at the end was reached by the benchmark's own
    code between calls.
    """

    def __init__(self):
        self.in_calls = 0.0

    def call(self, fn):
        before = _maxrss_mb()
        try:
            return fn()
        finally:
            after = _maxrss_mb()
            if after > before:
                self.in_calls = after


PEAK = PeakWatch()


class Pass:
    """What one pass measured; times are in reference-host seconds, ``wall`` in wall seconds."""

    def __init__(self):
        self.timed = self.wall = 0.0
        self.latencies: list[float] = []
        self.codes = self.splices = self.queries = self.failed = 0


# ---------------------------------------------------------------- sweep, splice

class SweepWorkload:
    """Exhaustive identity sweeps; one pass is one call of each entry point."""

    def __init__(self, calls, pinned, timer):
        from warppoly import search

        self.search = search
        self.timer = timer
        self.calls = calls
        self.pinned = [pinned[call_key(*call)] for call in calls]
        self.attempted = sum(sum(p["checks_run"].values()) for p in self.pinned)
        self.digest = hashlib.sha256(
            json.dumps([call_key(*c) for c in calls] + self.pinned, sort_keys=True).encode()
        ).hexdigest()

    def warm_up(self):
        self.search.run_property_suite(2, pair_max_crossings=1)
        self.search.almost_alternating_scan(2)

    def _calls(self):
        reports = []
        for name, c, pairs in self.calls:
            fn = getattr(self.search, name)
            reports.append(fn(c) if pairs is None else fn(c, pair_max_crossings=pairs))
        return reports

    def run_pass(self) -> Pass:
        p = Pass()
        start = time.perf_counter()
        try:
            reports, p.wall, p.timed = PEAK.call(lambda: self.timer.time(self._calls))
        except Exception as exc:  # a broken build is a failed pass, not a crash
            print(f"error: sweep call raised {exc!r}", file=sys.stderr)
            reports = None
            p.wall = p.timed = time.perf_counter() - start
        p.latencies.append(p.timed)
        p.queries = 1
        if reports is None:
            p.failed = self.attempted
            return p
        for report, pinned in zip(reports, self.pinned):
            p.codes += report.diagrams_checked
            checks = report.checks()
            p.splices += checks.get("connected-sum-identity", 0)
            # the gate: same codes, same checks per property, no violations
            miss = abs(report.diagrams_checked - pinned["diagrams_checked"])
            for prop in set(checks) | set(pinned["checks_run"]):
                miss += abs(checks.get(prop, 0) - pinned["checks_run"].get(prop, 0))
            miss += len(report.violations)
            if miss:
                print(f"error: {report.crossings_checked} sweep is off its pinned "
                      f"counts by {miss}", file=sys.stderr)
            p.failed += miss
        p.failed = min(p.failed, self.attempted)
        return p


# ---------------------------------------------------------------- CLI workloads

def _diagram(rng, family, size):
    """(``--braid`` argv or None, passes, strand count if a positive braid)."""
    if family == "bridge":
        return None, gen.one_bridge(rng, size), None
    strands, positive = (3, True) if family == "pos3" else (rng.randint(3, 12), False)
    word = gen.knot_word(rng, strands, size, positive)
    braid = ["--braid", " ".join(map(str, word)), "--strands", str(strands)]
    return braid, gen.closure(strands, word), strands if positive else None


def _passes_of(arg):
    """The diagram that a Gauss-code or ``--braid`` argument names."""
    if arg[0] == "--braid":
        return gen.closure(int(arg[3]), [int(w) for w in arg[1].split()])
    return gen.parse_gauss_text(arg[0])


def _code_is(text, passes) -> bool:
    return gen.joined_is(text, map(gen.token, passes))


def _lines(out: str) -> list[str]:
    return out.rstrip("\n").split("\n")


def _code_and_poly(out: str):
    code, poly = _lines(out)
    return code, gen.parse_poly_text(poly)


def query_op(rng, cmd, size, form, family):
    """argv, output check, codes read and splices made by one query.

    Only the argv is kept until the call: the check re-derives the diagram
    and its reference answer from the argv afterwards, so the benchmark's
    own data is not alive while the library runs.
    """
    if cmd == "connect":
        other = "bridge" if family != "bridge" else "pos3"
        _, left, _ = _diagram(rng, family, size // 2)
        _, right, _ = _diagram(rng, other, size - size // 2)
        e1, e2 = rng.randrange(len(left)), rng.randrange(len(right))
        argv = ["connect", gen.gauss_text(left), gen.gauss_text(right),
                "--edge", str(e1), "--edge2", str(e2)]
        del left, right
        return argv, functools.partial(_check_connect, argv, e1, e2), 2, 1

    braid, passes, positive = _diagram(rng, family, size)
    if cmd == "checkpoly":
        W = gen.poly_of(passes)
        argv = ["checkpoly", gen.list_form(W) if rng.random() < 0.5 else gen.term_form(W)]
        return argv, functools.partial(_check_checkpoly, argv), 0, 0

    n = len(passes)
    arg = braid if form == "braid" and braid else [gen.gauss_text(passes)]
    del passes
    params: list[str] = []
    if cmd in ("fg", "cc"):
        params = ["--crossing", str(rng.randint(1, n // 2))]
    elif cmd == "kink":
        params = ["--type", rng.choice(("1a", "1b")), "--edge", str(rng.randrange(n))]
    argv = [cmd, *arg, *params]
    return argv, functools.partial(_check_query, cmd, arg, params, positive), 1, 0


def _check_connect(argv, e1, e2, out):
    left, right = gen.parse_gauss_text(argv[1]), gen.parse_gauss_text(argv[2])
    code, poly = _code_and_poly(out)
    i, j = gen.labels(left)[e1], gen.labels(right)[e2]
    want = gen.shift(gen.poly_of(left), j) + gen.shift(gen.poly_of(right), i)
    return poly == want and _code_is(code, gen.splice(left, e1, right, e2))


def _check_checkpoly(argv, out):
    head, k, l, m = out.split()
    k, l = int(k[2:]), int(l[2:])
    m = [] if m == "m=-" else [int(x) for x in m[2:].split(",")]
    return (head == "Accept:" and l == len(m)
            and gen.staircase(k, m) == gen.parse_poly_text(argv[1]))


def _check_query(cmd, arg, params, positive, out):
    """Check one ``query`` output against the references recomputed from ``arg``."""
    passes = _passes_of(arg)
    c = len(passes) // 2
    lab = gen.labels(passes)
    W = Counter(lab)
    if cmd == "poly":
        got = gen.parse_poly_text(out)
        return (got == W and gen.value_at(got, 1) == 2 * c and gen.value_at(got, -1) == 0
                and (positive is None or max(got) - min(got) == positive - 1))
    if cmd == "label":
        return gen.joined_is(out.rstrip("\n"), map(str, lab))
    if cmd == "span":
        span = max(lab) - min(lab)
        return int(out) == span and (positive is None or span == positive - 1)
    if cmd == "degree":
        return int(out) == min(lab)
    if cmd == "monotone":
        return out.strip() == str(min(lab) == 0).lower()
    if cmd in ("alternating", "onebridge"):
        flips = sum(passes[i][1] != passes[i - 1][1] for i in range(len(passes)))
        want = flips == len(passes) if cmd == "alternating" else flips == 2
        return out.strip() == str(want).lower()
    if cmd == "fg":
        x = int(params[1])
        f, g, pred = (gen.parse_poly_text(line.split(": ")[1]) for line in _lines(out))
        changed = gen.poly_of(gen.crossing_change(passes, x))
        return (f, g) == gen.fg_split(passes, x) and min(f) >= 1 and f + g == W and pred == changed
    if cmd == "cc":
        x = int(params[1])
        code, poly = _code_and_poly(out)
        return (poly == gen.predicted_change(passes, x)
                and _code_is(code, gen.crossing_change(passes, x)))
    if cmd in ("mirror", "reverse"):
        code, poly = _code_and_poly(out)
        moved = map(gen.flipped, passes) if cmd == "mirror" else reversed(passes)
        return poly == gen.reflect(W, c) and _code_is(code, moved)
    if cmd == "kink":
        kind, edge = params[1], int(params[3])
        code, poly = _code_and_poly(out)
        i = lab[edge]
        want = (W if kind == "1a" else gen.shift(W, 1)) + Counter({i: 1, i + 1: 1})
        return poly == want and _code_is(code, gen.kink(passes, edge, kind == "1a"))
    raise ValueError(cmd)


def canonical_op(base_rng, rng, cmd, size, family, seen, key):
    """``--canonical`` on a random rotation and renumbering of a shared base."""
    if cmd == "connect":
        _, left, _ = _diagram(base_rng, family, size // 2)
        _, right, _ = _diagram(base_rng, "bridge", size - size // 2)
        e1, e2 = base_rng.randrange(len(left)), base_rng.randrange(len(right))
        result = gen.splice(left, e1, right, e2)
        left2, r1, _ = gen.rotate_renumber(rng, left)
        right2, r2, _ = gen.rotate_renumber(rng, right)
        argv = ["--canonical", "connect", gen.gauss_text(left2), gen.gauss_text(right2),
                "--edge", str((e1 - r1) % len(left)), "--edge2", str((e2 - r2) % len(right))]
        codes, splices = 2, 1
    else:
        _, passes, _ = _diagram(base_rng, family, size)
        n = len(passes)
        params = {"crossing": base_rng.randint(1, n // 2), "edge": base_rng.randrange(n),
                  "type": base_rng.choice(("1a", "1b"))}
        result = gen.transform(cmd, passes, params)
        moved, r, remap = gen.rotate_renumber(rng, passes)
        argv = ["--canonical", cmd, gen.gauss_text(moved)]
        if cmd == "cc":
            argv += ["--crossing", str(remap[params["crossing"]])]
        elif cmd == "kink":
            argv += ["--type", params["type"], "--edge", str((params["edge"] - r) % n)]
        codes, splices = 1, 0
    want = gen.poly_of(result)

    def check(out):
        code, poly = _code_and_poly(out)
        got = gen.parse_gauss_text(code)
        ok = (poly == want and gen.poly_of(got) == want and len(got) == len(result)
              and gen.is_first_appearance_numbered(got))
        return ok and seen.setdefault(key, code) == code

    return argv, check, codes, splices


def witness_op(rng, total):
    """``witness`` on a staircase polynomial whose coefficients sum to ``total``.

    Each ``m_i`` adds ``m_i (t^{k+i} + t^{k+i+1})``, so the ``m_i`` sum to
    ``total / 2``.
    """
    s = total // 2
    l = max(1, s // 4)
    cuts = sorted(rng.sample(range(1, s), l - 1))
    m = [b - a for a, b in zip([0] + cuts, cuts + [s])]
    k = rng.randint(0, s - l)
    P = gen.staircase(k, m)
    argv = ["witness", gen.term_form(P) if rng.random() < 0.5 else gen.list_form(P)]
    return argv, functools.partial(_check_witness, argv), 1, 0


def _check_witness(argv, out):
    P = gen.parse_poly_text(argv[1])
    code, poly = _code_and_poly(out)
    return poly == P and gen.poly_of(gen.parse_gauss_text(code)) == P


def dalt_op(rng, c, j):
    passes = gen.even_code(rng, c, c // 2 - j % 2)

    def check(out):
        return int(out) == gen.dealternating(passes)

    return ["dalt", gen.gauss_text(passes)], check, 1, 0


def query_pool(rng, sizes):
    pool = []
    for o, cmd in enumerate(gen.QUERY_COMMANDS):
        for j, size in enumerate(gen.log_strata(*sizes["query"], sizes["query_strata"])):
            braid = (o + j) % 2 == 1 and cmd != "connect"
            if braid or cmd == "checkpoly":
                family = ("pos3", "signed")[(o + j // 2) % 2]
            else:
                family = ("pos3", "signed", "bridge")[(o + j // 2) % 3]
            form = "braid" if braid else "text"
            seed = rng.getrandbits(64)
            pool.append(lambda seed=seed, a=(cmd, size, form, family):
                        query_op(random.Random(seed), *a))
    rng.shuffle(pool)
    return pool


def construct_pool(rng, sizes):
    strata = sizes["construct_strata"]
    seen: dict = {}  # first canonical output per base
    pool = []
    for b, size in enumerate(gen.log_strata(*sizes["canonical"], strata // 2)):
        cmd = gen.CANONICAL_COMMANDS[b % len(gen.CANONICAL_COMMANDS)]
        family = ("pos3", "signed", "bridge")[b % 3]
        base_seed = rng.getrandbits(64)
        for _ in range(2):
            seed = rng.getrandbits(64)
            pool.append(lambda seed=seed, a=(cmd, size, family, seen, b), bs=base_seed:
                        canonical_op(random.Random(bs), random.Random(seed), *a))
    for s in gen.log_strata(*sizes["witness"], strata):
        seed = rng.getrandbits(64)
        pool.append(lambda seed=seed, s=s: witness_op(random.Random(seed), s))
    lo, hi = sizes["dalt"]
    for j in range(strata):
        seed = rng.getrandbits(64)
        c = lo + j * (hi - lo + 1) // strata
        pool.append(lambda seed=seed, c=c, j=j: dalt_op(random.Random(seed), c, j))
    rng.shuffle(pool)
    return pool


class CliWorkload:
    """A closed loop of ``warp`` invocations through ``warppoly.cli.main``.

    Each input is generated just before its call and checked just after it;
    only the call itself is timed.
    """

    def __init__(self, pool, warm_pool, timer):
        from warppoly import cli

        self.cli = cli
        self.timer = timer
        self.pool = pool
        self.warm_pool = warm_pool
        self.attempted = len(pool)
        self.digest = None

    def main(self, argv, out, err):
        """Run one ``warp`` command into ``out`` and ``err``; return its exit code."""
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return self.cli.main(argv)
        except Exception as exc:  # an unexpected exception is a failed call
            err.write(repr(exc))
            return None

    def call(self, argv, timer):
        """Run one timed command; return (exit code, stdout, stderr, wall s, reference s)."""
        out, err = io.StringIO(), io.StringIO()
        rc, wall, timed = PEAK.call(lambda: timer.time(lambda: self.main(argv, out, err)))
        return rc, out.getvalue(), err.getvalue(), wall, timed

    def warm_up(self):
        for make in self.warm_pool:
            argv, _, _, _ = make()
            self.main(argv, io.StringIO(), io.StringIO())

    def run_pass(self) -> Pass:
        p = Pass()
        digest = hashlib.sha256()
        for make in self.pool:
            argv, check, codes, splices = make()
            digest.update("\x1f".join(argv).encode() + b"\x1e")
            rc, out, err, wall, timed = self.call(argv, self.timer)
            p.wall += wall
            p.timed += timed
            p.latencies.append(timed)
            p.queries += 1
            p.codes += codes
            p.splices += splices
            try:
                ok = rc == 0 and check(out)
            except Exception:  # malformed output fails its check
                ok = False
            if not ok:
                p.failed += 1
                print(f"error: {' '.join(argv)[:100]} exited {rc} or failed its check "
                      f"{err.strip()[:200]}", file=sys.stderr)
        self.digest = digest.hexdigest()
        return p


# ---------------------------------------------------------------- running a workload

def build(args):
    """Import the package, make the inputs, warm up: everything before timing."""
    sys.path.insert(0, str(ROOT / "src"))
    import warppoly.cli  # noqa: F401  (the import is part of set-up)

    if not Path(warppoly.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"warppoly imported from {warppoly.cli.__file__}, not the checkout")
    rng = random.Random(f"{args.workload}:{args.seed}")
    # traced runs time plain wall clock: a probe inside a span would count as its time
    timer = clock.Clock(scaled=not args.trace)
    if args.workload in ("sweep", "splice"):
        pinned = json.loads((HERE / "pinned.json").read_text())
        workload = SweepWorkload(SWEEP_CALLS[args.tiny][args.workload], pinned, timer)
    else:
        make_pool = query_pool if args.workload == "query" else construct_pool
        workload = CliWorkload(make_pool(rng, gen.SIZES[args.tiny]),
                               make_pool(random.Random(0), gen.SIZES[True]), timer)
    workload.warm_up()
    return workload


def percentile_90(values):
    """Interpolated between order statistics, so that with a few samples it is not the maximum."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(workload, seconds):
    """Passes while the next one is predicted to end within ``seconds`` of wall time."""
    passes, wall = [], 0.0
    while True:
        p = workload.run_pass()
        passes.append(p)
        wall += p.wall
        if wall + p.wall > seconds:
            return passes


def end_to_end(workload, passes):
    timed = sum(p.timed for p in passes)
    lat = sorted(x for p in passes for x in p.latencies)
    failed = max(p.failed for p in passes)
    metrics = {
        "codes_per_s": (sum(p.codes for p in passes) / timed, "1/s"),
        "splices_per_s": (sum(p.splices for p in passes) / timed, "1/s"),
        "queries_per_s": (sum(p.queries for p in passes) / timed, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (percentile_90(lat) * 1e3, "ms"),
        "failed_ratio": ((failed + 1) / (workload.attempted + 1), "ratio"),
        "peak_rss_mb": (_maxrss_mb(), "MB"),
    }
    extra = {"passes": len(passes), "latency_samples": len(lat),
             "samples_above_p90": sum(x * 1e3 > metrics["latency_p90_ms"][0] for x in lat),
             "timed_s": timed, "wall_s": sum(p.wall for p in passes),
             "peak_rss_mb_above_calls": _maxrss_mb() - PEAK.in_calls}
    return metrics, failed, extra


def per_layer(args, workload):
    before = workload.run_pass()
    tracer = spans.Tracer()
    tracer.install()
    traced = workload.run_pass()
    tracer.uninstall()
    after = workload.run_pass()
    untraced_s = (before.timed + after.timed) / 2
    metrics = tracer.metrics()
    codes = max(traced.codes, 1)  # a pass that raised checked no codes
    for name, boundary in (("diagram.validations_per_code", "diagram.validate"),
                           ("warping.labelings_per_code", "warping.labeling"),
                           ("laurent.polys_per_code", "laurent.normalize")):
        metrics[name] = (tracer.calls_of(boundary) / codes, "calls/code")
    # untraced passes on both sides, so slow drift in machine speed cancels
    metrics["trace.overhead_ratio"] = (traced.timed / untraced_s, "ratio")
    missing = sorted(b for b in COVERAGE[args.workload] if tracer.calls_of(b) == 0)
    for b in missing:
        print(f"error: boundary {b} recorded no calls on {args.workload}", file=sys.stderr)
    if args.spans_out:
        tracer.write_spans(args.spans_out)
    failed = max(before.failed, traced.failed, after.failed) + len(missing)
    extra = {"untraced_pass_s": [before.timed, after.timed], "traced_pass_s": traced.timed,
             "coverage_missing": missing, "spans_dropped": tracer.dropped}
    return metrics, failed, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = build(args)
    ready = time.monotonic()
    print(f"READY {ready:.9f} {clock.bare_start():.9f}", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        metrics, failed, extra = per_layer(args, workload)
    else:
        metrics, failed, extra = end_to_end(workload, measure(workload, args.seconds))
    extra["input_digest"] = workload.digest
    result = {"attempted": workload.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "extra": extra}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
