import hashlib
import itertools
import json
from collections import Counter

import pytest

from warppoly import (
    BraidWord,
    GaussDiagram,
    almost_alternating_scan,
    braid_closure,
    dealternating_number,
    diagram_span,
    enumerate_diagrams,
    parse_gauss,
    run_property_suite,
    span_witness,
    warping_polynomial,
)
from warppoly import characterize, moves, search, warping
from warppoly.errors import (
    BoundExceededError,
    NotAlternatableError,
    NotConstructibleError,
    ZeroCrossingsError,
)

from _oracles import (
    code_count,
    kink_loop_span_witness,
    phase_dealternating,
    remap_connected_sum,
    subset_dealternating,
)


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_diagrams(0)) == 1
    assert [str(d) for d in enumerate_diagrams(1)] == ["O1 U1", "U1 O1"]
    assert sum(1 for _ in enumerate_diagrams(2)) == 12
    for c in range(0, 5):
        assert sum(1 for _ in enumerate_diagrams(c)) == code_count(c)


def test_enumeration_yields_distinct_valid_codes():
    seen = set()
    for d in enumerate_diagrams(3):
        text = str(d)
        assert text not in seen
        seen.add(text)
        assert d.crossing_count == 3
        # construction re-validates; first-appearance ids are canonical
        assert d.crossing_ids() == (1, 2, 3)


def test_enumeration_bound():
    with pytest.raises(BoundExceededError):
        next(enumerate_diagrams(7))
    with pytest.raises(ValueError):
        next(enumerate_diagrams(-1))


def test_dealternating_examples():
    assert dealternating_number(parse_gauss("O1 U2 O3 U1 O2 U3")) == 0
    assert dealternating_number(parse_gauss("O1 O2 O3 U1 U2 U3")) == 1
    with pytest.raises(ZeroCrossingsError):
        dealternating_number(GaussDiagram(()))
    with pytest.raises(NotAlternatableError):
        dealternating_number(parse_gauss("O1 O2 U1 U2"))


def test_dealternating_large_braid_closure():
    # no crossing cap: thousands of crossings answer at once
    for letters in ((1, 2) * 1000, (1, 2, 2, -1, 1, 2) * 400):
        d = braid_closure(BraidWord(3, letters))
        assert d.crossing_count >= 2000
        assert dealternating_number(d) == phase_dealternating(d)
    assert dealternating_number(braid_closure(BraidWord(3, (1, -2) * 1000))) == 0


def test_dealternating_matches_parity_oracle():
    for c in range(1, 5):
        for d in enumerate_diagrams(c):
            expected = phase_dealternating(d)
            if expected is None:
                with pytest.raises(NotAlternatableError):
                    dealternating_number(d)
            else:
                assert dealternating_number(d) == expected


def test_dealternating_matches_subset_search_oracle():
    for c in range(1, 6):
        for d in enumerate_diagrams(c):
            expected = subset_dealternating(d)
            if expected is None:
                with pytest.raises(NotAlternatableError) as err:
                    dealternating_number(d)
                assert str(err.value) == (
                    "no crossing-change subset is alternating (code fails evenness)"
                )
            else:
                assert dealternating_number(d) == expected


def test_span_witness_one_bridge_case():
    d = span_witness(8, 8)
    assert d.crossing_count == 8
    assert diagram_span(d) == 8
    assert d.is_one_bridge()


def test_span_witness_kinked_case():
    d = span_witness(9, 8)
    assert d.crossing_count == 9
    assert diagram_span(d) == 8
    assert d.evenness_lint()
    assert dealternating_number(d) == 4


def test_span_witness_empty_case():
    assert span_witness(0, 0).crossing_count == 0


def test_span_witness_not_constructible():
    for c, s in ((3, 1), (2, 3), (1, 0), (0, 2)):
        with pytest.raises(NotConstructibleError):
            span_witness(c, s)


def test_span_witness_matches_kink_loop():
    for c in range(0, 41):
        for s in range(0, 41):
            try:
                expected = kink_loop_span_witness(c, s)
            except NotConstructibleError as err:
                with pytest.raises(NotConstructibleError) as got:
                    span_witness(c, s)
                assert str(got.value) == str(err)
            else:
                assert span_witness(c, s) == expected


def test_span_witness_builds_without_labeling_or_kinks(monkeypatch):
    calls = {}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(warping, "labeling")
    for name in (
        "labeling",
        "find_edge_with_label",
        "insert_kink_over_first",
        "insert_kink_under_first",
    ):
        counted(moves, name)
    assert span_witness(60, 5).crossing_count == 60
    assert calls == {}


def test_span_witness_at_scale():
    c = 10**5
    d = span_witness(c, 2)
    assert d.crossing_count == c
    assert diagram_span(d) == 2
    assert d.evenness_lint()
    assert dealternating_number(d) == 1


def test_almost_alternating_scan_trefoil_detail():
    trefoil = parse_gauss("O1 U2 O3 U1 O2 U3")
    changed = trefoil.crossing_change(1)
    assert diagram_span(changed) == 3
    f, g = warping.fg_decomposition(trefoil, 1)
    assert f.span() == 1 and g.span() == 1


def test_almost_alternating_scan_two_crossings():
    d = parse_gauss("O1 U2 O2 U1")
    changed = d.crossing_change(2)
    assert diagram_span(changed) in (2, 3)


def test_almost_alternating_scan_clean():
    report = almost_alternating_scan(4)
    assert report.ok
    assert report.diagrams_checked > 0
    assert report.checks()["almost-alternating-span-range"] > 0


def test_almost_alternating_scan_bound():
    with pytest.raises(BoundExceededError):
        almost_alternating_scan(7)
    with pytest.raises(ValueError, match=r"^max_crossings -1 below 0$"):
        almost_alternating_scan(-1)
    assert almost_alternating_scan(0).diagrams_checked == 0


def test_property_suite_small():
    # splice pairs are limited to c <= 1: the c <= 5 fixture already runs
    # the c <= 3 connected-sum sweep (criteria 3 and 5)
    report = run_property_suite(3, pair_max_crossings=1)
    assert report.ok
    assert report.diagrams_checked == 1 + 2 + 12 + 120
    assert report.crossings_checked == (0, 3)
    counts = report.checks()
    assert counts["connected-sum-identity"] > 0
    assert counts["crossing-change-prediction"] > 0


def test_property_suite_bound():
    with pytest.raises(BoundExceededError):
        run_property_suite(9)
    with pytest.raises(ValueError, match=r"^max_crossings -1 below 0$"):
        run_property_suite(-1)
    assert run_property_suite(0).diagrams_checked == 1


def test_property_suite_report_json_stable():
    report = run_property_suite(1)
    blob = report.to_json()
    parsed = json.loads(blob)
    assert list(parsed) == [
        "crossings_checked",
        "diagrams_checked",
        "violations",
        "checks_run",
    ]
    assert parsed["diagrams_checked"] == 3
    assert parsed["violations"] == []
    # byte-identical across runs
    assert run_property_suite(1).to_json() == blob


def test_verify_json_pinned(full_suite_report):
    # stdout of `warp --json verify --max-crossings 5`, byte for byte
    blob = (full_suite_report.to_json() + "\n").encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "7e8ba3ae597bf37185337acb8a917654476a401e8978f7719ffc58c0741dbdf7"
    )


def test_sweep_workload_reports_pinned():
    # the two reports a pass of the benchmark's sweep workload makes, which
    # it gates only by their counts, byte for byte
    suite = run_property_suite(4, pair_max_crossings=1).to_json()
    assert hashlib.sha256(suite.encode()).hexdigest() == (
        "22e7c7e61c42d8d15d35e9489d16cefc8ee1b99eda1b910cc8add57592a28766"
    )
    scan = almost_alternating_scan(4).to_json()
    assert hashlib.sha256(scan.encode()).hexdigest() == (
        "af63c5355dacbcb6870a299f1469780b9327e4f319ee699418ce712b3ef01b4b"
    )


def test_property_suite_flags_corrupted_labeling(monkeypatch):
    # fault injection: bump one edge label and expect the suite to notice
    real = warping.labeling

    def corrupted(diagram):
        labels = real(diagram)
        return (labels[0] + 1,) + labels[1:]

    monkeypatch.setattr(warping, "labeling", corrupted)
    report = run_property_suite(1)
    assert not report.ok
    assert all(v.property_id for v in report.violations)


def test_suite_exercises_nonrealizable_codes():
    # the enumeration must include codes failing evenness, and the suite
    # must classify them as dealternating-unreachable rather than skip them
    report = run_property_suite(2)
    assert report.ok
    assert report.checks()["dealternating-reachable-iff-evenness"] == 14


def test_property_suite_records_non_package_errors(monkeypatch):
    # any exception from a library call is a violation, not a traceback
    target = next(enumerate_diagrams(2))
    real = warping.fg_decomposition

    def broken(diagram, crossing):
        if diagram == target:
            raise KeyError("broken fg")
        return real(diagram, crossing)

    monkeypatch.setattr(warping, "fg_decomposition", broken)
    report = run_property_suite(2, pair_max_crossings=1)
    assert not report.ok
    assert report.diagrams_checked == 1 + 2 + 12
    assert [v.as_dict() for v in report.violations] == [
        {
            "property": "no-unexpected-errors",
            "code": str(target),
            "detail": "KeyError('broken fg')",
        }
    ]


def test_connected_sum_sweep_records_non_package_errors(monkeypatch):
    real = moves.connected_sum

    # the sweep builds each pair's (0, 0) splice through connected_sum
    def broken(left, edge, right, other_edge):
        if str(left) == "U1 O1" and (edge, other_edge) == (0, 0):
            raise IndexError("broken splice")
        return real(left, edge, right, other_edge)

    monkeypatch.setattr(moves, "connected_sum", broken)
    report = run_property_suite(2, pair_max_crossings=1)
    assert not report.ok
    assert report.diagrams_checked == 1 + 2 + 12
    # two right summands hit the broken edge pair; the other 14 splices run
    assert [v.as_dict() for v in report.violations] == [
        {
            "property": "no-unexpected-errors",
            "code": "U1 O1",
            "detail": "IndexError('broken splice')",
        }
    ] * 2
    assert report.checks()["connected-sum-identity"] == 14


def test_connected_sum_sweep_matches_remap_oracle(monkeypatch):
    # the sweep glues cached renumbered segments; every code it labels after
    # its 14 summands must be the oracle's splice, in loop order, and
    # connected_sum must still build one splice per pair
    summands = [d for c in (1, 2) for d in enumerate_diagrams(c)]
    labelled, calls = [], []
    real_labeling, real_sum = warping.labeling, moves.connected_sum

    def recording_labeling(diagram):
        labelled.append(diagram)
        return real_labeling(diagram)

    def counting_sum(*args):
        calls.append(args)
        return real_sum(*args)

    monkeypatch.setattr(warping, "labeling", recording_labeling)
    monkeypatch.setattr(moves, "connected_sum", counting_sum)
    rec = search._Recorder()
    search._check_connected_sums(rec, 2)
    assert rec.violations == []
    glued = labelled[len(summands):]
    assert len(glued) == 2704
    assert glued == [
        remap_connected_sum(left, edge, right, other_edge)
        for left in summands
        for right in summands
        for edge in range(len(left.passes))
        for other_edge in range(len(right.passes))
    ]
    assert len(calls) == 196
    assert calls == [(left, 0, right, 0) for left in summands for right in summands]


def test_kink_and_crossing_change_groups_match_public_moves(monkeypatch):
    # _kinks splices two prebuilt kink segments and _crossing_changes predicts
    # from the f/g split it has just checked: every kinked code they label
    # must be the public move's, in loop order, every prediction the public
    # one's, and each public move must still run once per code
    real_labeling, real_predicted = warping.labeling, warping._predicted
    kinks = (moves.insert_kink_over_first, moves.insert_kink_under_first)
    predict = warping.predict_crossing_change
    labelled, predicted, calls = [], [], Counter()

    def recording_labeling(diagram):
        labelled.append(diagram)
        return real_labeling(diagram)

    def recording_predicted(f, g):
        predicted.append(real_predicted(f, g))
        return predicted[-1]

    def counting(fn):
        def call(*args):
            calls[fn.__name__] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(warping, "labeling", recording_labeling)
    monkeypatch.setattr(warping, "_predicted", recording_predicted)
    for module, fn in ((moves, kinks[0]), (moves, kinks[1]), (warping, predict)):
        monkeypatch.setattr(module, fn.__name__, counting(fn))
    for c in range(1, 4):
        for diagram in enumerate_diagrams(c):
            labels = warping.labeling(diagram)
            poly = warping.warping_polynomial(diagram)
            rec = search._Recorder()
            labelled.clear()
            predicted.clear()
            calls.clear()
            search._kinks(rec, diagram, labels, poly)
            search._crossing_changes(rec, diagram, poly, max(labels) - min(labels))
            assert rec.violations == []
            assert dict(calls) == {fn.__name__: 1 for fn in (*kinks, predict)}
            # the f/g splits relabel the code itself; every other labeled
            # code is a kinked or a changed one
            derived = [d for d in labelled if d != diagram]
            kinked, changed = derived[: 4 * c], derived[4 * c :]
            assert kinked == [
                kink(diagram, edge) for edge in range(2 * c) for kink in kinks
            ], str(diagram)
            crossings = sorted(diagram.crossing_ids())
            assert changed == [diagram.crossing_change(x) for x in crossings]
            # copied first: the reference predictions record themselves too
            got = list(predicted)
            assert got == [predict(diagram, x) for x in crossings], str(diagram)


CHECK_GROUPS = ("_invariants", "_crossing_changes", "_kinks", "_dealternating_bounds")


def test_check_groups_labelings_per_code(monkeypatch):
    # the labelings each check group makes on one code: relabeling added to
    # a group shows up here as a count
    active, counts = ["_check_diagram"], Counter()
    real_labeling = warping.labeling

    def counting_labeling(diagram):
        counts[active[-1]] += 1
        return real_labeling(diagram)

    def tracked(name, group):
        def run(*args):
            active.append(name)
            try:
                return group(*args)
            finally:
                active.pop()

        return run

    monkeypatch.setattr(warping, "labeling", counting_labeling)
    for name in CHECK_GROUPS:
        monkeypatch.setattr(search, name, tracked(name, getattr(search, name)))
    for c in range(4):
        # the code's own labeling, which its polynomial is built from; the
        # reversed and mirrored polynomials, warping_degree and is_monotone;
        # per crossing the changed polynomial and fg_decomposition, and the
        # first crossing's predict_crossing_change; per edge both kinked
        # codes, on polynomials at edge 0 and in label space past it
        want = {"_check_diagram": 1, "_invariants": 4}
        if c:
            want.update(_crossing_changes=2 * c + 1, _kinks=2 * 2 * c)
        for diagram in enumerate_diagrams(c):
            counts.clear()
            rec = search._Recorder()
            search._check_diagram(rec, diagram)
            assert rec.violations == []
            assert dict(counts) == want, str(diagram)


def _faulty(real, wrong):
    # every 7th call raises, and every other 3rd returns a wrong value
    calls = itertools.count(1)

    def call(*args):
        n = next(calls)
        if n % 7 == 0:
            raise RuntimeError(f"injected fault {n}")
        out = real(*args)
        return wrong(out) if n % 3 == 0 else out

    return call


@pytest.mark.parametrize(
    ("module", "name", "wrong", "sha"),
    [
        (characterize, "recognize", lambda form: None,
         "eaae258cc0f76315b31bc4045def8a5796ee3625744d11ce3407db273dc779d8"),
        (warping, "fg_decomposition", lambda fg: fg[::-1],
         "10d287803d2735e2908eb956458ed9e2b6e2c9713034d2a9d65eb5b59ce9bf97"),
        (moves, "insert_kink_under_first", lambda kinked: kinked.reverse(),
         "0e028b3c05da89d2efaa55ca9bfde151d73d00e6a877740c022acd79ce177f2c"),
        (search, "dealternating_number", lambda dalt: dalt + 1,
         "2365703a32579902d6d415e2c0290e6bfd43179712b6a74743ab31c28d4ba9fa"),
    ],
    ids=CHECK_GROUPS,
)
def test_check_groups_keep_report_under_faults(monkeypatch, module, name, wrong, sha):
    # a fault in one call of each group: the c <= 3 report, counts and
    # violation order included, is pinned.  The recognize and
    # dealternating_number rows are the reports of the single check function
    # the groups were split from; fg_decomposition and insert_kink_under_first
    # now run once per crossing and once per code, so their faults land on
    # other calls
    monkeypatch.setattr(module, name, _faulty(getattr(module, name), wrong))
    report = run_property_suite(3, pair_max_crossings=1)
    assert not report.ok
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == sha


def test_label_multiset_checks_keep_report_under_splice_faults(monkeypatch):
    # the kinks past edge 0 and the splices past (0, 0) are checked in label
    # space; a fault in the splices they build, every 7th raising and every
    # other 3rd gluing its segment reversed, must be flagged exactly as the
    # polynomial checks flagged it: the c <= 3 report with pairs up to c = 2,
    # pinned as the polynomial checks made it
    real, calls = search._spliced, itertools.count(1)

    def faulty(passes, edge, segment):
        n = next(calls)
        if n % 7 == 0:
            raise RuntimeError(f"injected fault {n}")
        return real(passes, edge, segment[::-1] if n % 3 == 0 else segment)

    monkeypatch.setattr(search, "_spliced", faulty)
    report = run_property_suite(3, pair_max_crossings=2)
    assert not report.ok
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
        "d460e1c75db6ea584eecd963d0c416b14344b204710f2f3faaf692dfa6ac38e2"
    )
