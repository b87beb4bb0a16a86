import json

import pytest

from warppoly import warping
from warppoly.cli import main

TREFOIL = "O1 U2 O3 U1 O2 U3"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly(capsys):
    code, out, _ = run(capsys, "poly", TREFOIL)
    assert code == 0
    assert out == "3t+3t^2\n"


def test_poly_json(capsys):
    code, out, _ = run(capsys, "--json", "poly", TREFOIL)
    assert code == 0
    assert json.loads(out) == {"poly": "3t+3t^2"}


def test_label(capsys):
    code, out, _ = run(capsys, "label", TREFOIL)
    assert code == 0
    assert out == "2 1 2 1 2 1\n"


def test_span_degree_monotone(capsys):
    assert run(capsys, "span", TREFOIL)[1] == "1\n"
    assert run(capsys, "degree", TREFOIL)[1] == "1\n"
    assert run(capsys, "monotone", TREFOIL)[1] == "false\n"
    assert run(capsys, "alternating", TREFOIL)[1] == "true\n"
    assert run(capsys, "onebridge", TREFOIL)[1] == "false\n"


def test_span_from_braid(capsys):
    code, out, _ = run(capsys, "span", "--braid", "1 1 1", "--strands", "2")
    assert code == 0
    assert out == "1\n"


def test_mirror_emits_code_and_poly(capsys):
    code, out, _ = run(capsys, "mirror", "O1 U1")
    assert code == 0
    assert out == "U1 O1\n1+t\n"


def test_cc(capsys):
    code, out, _ = run(capsys, "cc", "--crossing", "1", TREFOIL)
    assert code == 0
    assert out.splitlines() == ["U1 U2 O3 O1 O2 U3", "1+2t+2t^2+t^3"]


def test_kink(capsys):
    code, out, _ = run(capsys, "kink", "--type", "1a", "--edge", "1", TREFOIL)
    assert code == 0
    assert out.splitlines() == ["O1 U2 O4 U4 O3 U1 O2 U3", "4t+4t^2"]
    code, out, _ = run(capsys, "kink", "--type", "1b", "--edge", "1", TREFOIL)
    assert out.splitlines()[1] == "t+4t^2+3t^3"


def test_connect(capsys):
    code, out, _ = run(
        capsys, "connect", TREFOIL, "O1 U1", "--edge", "5", "--edge2", "1"
    )
    assert code == 0
    assert out.splitlines() == ["O1 U2 O3 U1 O2 U3 O4 U4", "4t+4t^2"]


def test_checkpoly_accept(capsys):
    code, out, _ = run(capsys, "checkpoly", "3t+3t^2")
    assert code == 0
    assert out == "Accept: k=1 l=1 m=3\n"


def test_checkpoly_reject_is_exit_zero(capsys):
    code, out, _ = run(capsys, "checkpoly", "t+t^2")
    assert code == 0
    assert out == "Reject: SumTooSmall\n"


def test_checkpoly_list_form(capsys):
    code, out, _ = run(capsys, "--json", "checkpoly", "0:1,2,2,1")
    assert json.loads(out) == {"accepted": True, "k": 0, "l": 3, "m": [1, 1, 1]}


def test_witness_round_trips_through_poly(capsys):
    code, out, _ = run(capsys, "witness", "3t+3t^2")
    assert code == 0
    witness_code = out.splitlines()[0]
    code, out, _ = run(capsys, "poly", witness_code)
    assert code == 0
    assert out == "3t+3t^2\n"


def test_witness_rejection_exit_code(capsys):
    code, out, _ = run(capsys, "witness", "t+t^2")
    assert code == 3
    assert out == "Reject: SumTooSmall\n"


def test_fg(capsys):
    code, out, _ = run(capsys, "fg", "--crossing", "1", TREFOIL)
    assert code == 0
    assert out.splitlines() == [
        "f: t+2t^2",
        "g: 2t+t^2",
        "predicted: 1+2t+2t^2+t^3",
    ]


def test_dalt(capsys):
    code, out, _ = run(capsys, "dalt", "O1 O2 O3 U1 U2 U3")
    assert code == 0
    assert out == "1\n"


def test_verify_clean(capsys):
    code, out, _ = run(capsys, "verify", "--max-crossings", "2")
    assert code == 0
    assert "0 violations" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "--json", "verify", "--max-crossings", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["diagrams_checked"] == 3
    assert payload["violations"] == []


def test_verify_violation_exit_code(capsys, monkeypatch):
    real = warping.labeling

    def corrupted(diagram):
        labels = real(diagram)
        return (labels[0] + 1,) + labels[1:]

    monkeypatch.setattr(warping, "labeling", corrupted)
    code, out, _ = run(capsys, "verify", "--max-crossings", "1")
    assert code == 2


def test_canonical_flag(capsys):
    code, out, _ = run(capsys, "--canonical", "mirror", "O1 U1")
    assert code == 0
    assert out.splitlines()[0] == "O1 U1"


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "poly", "O1 X2")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_braid_and_code_conflict(capsys):
    code, _, err = run(capsys, "poly", TREFOIL, "--braid", "1", "--strands", "2")
    assert code == 1
    assert "not both" in err


def test_braid_requires_strands(capsys):
    code, _, err = run(capsys, "poly", "--braid", "1 1 1")
    assert code == 1


def test_missing_input(capsys):
    code, _, err = run(capsys, "poly")
    assert code == 1


def test_usage_error_exit_code(capsys):
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys)[0] == 1


def test_not_a_knot_braid(capsys):
    code, _, err = run(capsys, "span", "--braid", "1 1", "--strands", "2")
    assert code == 1
    assert "components" in err


def test_dalt_on_large_braid_closure(capsys):
    # 2,000 crossings: the position-parity rule has no crossing cap
    code, out, err = run(capsys, "dalt", "--braid", " ".join(["1 2"] * 1000), "--strands", "3")
    assert (code, err) == (0, "")
    assert out == "1000\n"
