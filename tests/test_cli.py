import json

import pytest

from warppoly import notation, parse_gauss, search, warping
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


def test_actions_call_through_module_attributes(capsys, monkeypatch):
    # tracers wrap library functions on their modules after import, so the
    # CLI must look them up at call time
    monkeypatch.setattr(search, "dealternating_number", lambda d: 42)
    monkeypatch.setattr(warping, "diagram_span", lambda d: 7)
    monkeypatch.setattr(notation, "canonicalize", lambda d: parse_gauss("O5 U5"))
    assert run(capsys, "dalt", TREFOIL) == (0, "42\n", "")
    assert run(capsys, "span", TREFOIL) == (0, "7\n", "")
    assert run(capsys, "--canonical", "mirror", TREFOIL)[1].startswith("O5 U5\n")


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


# (argv, exit code, stdout, stderr), byte for byte: every subcommand in text
# and --json form, --canonical on every code-emitting command, and the
# `error:` line of the package's own errors.  README calls this output fixed.
PINNED = [
    (['poly', TREFOIL], 0, '3t+3t^2\n', ''),
    (['--json', 'poly', TREFOIL], 0, '{"poly": "3t+3t^2"}\n', ''),
    (['label', TREFOIL], 0, '2 1 2 1 2 1\n', ''),
    (['--json', 'label', TREFOIL], 0, '{"labels": [2, 1, 2, 1, 2, 1]}\n', ''),
    (['span', TREFOIL], 0, '1\n', ''),
    (['--json', 'span', TREFOIL], 0, '{"value": 1}\n', ''),
    (['degree', TREFOIL], 0, '1\n', ''),
    (['--json', 'degree', TREFOIL], 0, '{"value": 1}\n', ''),
    (['monotone', TREFOIL], 0, 'false\n', ''),
    (['--json', 'monotone', TREFOIL], 0, '{"value": false}\n', ''),
    (['alternating', TREFOIL], 0, 'true\n', ''),
    (['--json', 'alternating', TREFOIL], 0, '{"value": true}\n', ''),
    (['onebridge', TREFOIL], 0, 'false\n', ''),
    (['--json', 'onebridge', TREFOIL], 0, '{"value": false}\n', ''),
    (['dalt', TREFOIL], 0, '0\n', ''),
    (['--json', 'dalt', TREFOIL], 0, '{"value": 0}\n', ''),
    (['mirror', TREFOIL], 0, 'U1 O2 U3 O1 U2 O3\n3t+3t^2\n', ''),
    (['--json', 'mirror', TREFOIL], 0, '{"code": "U1 O2 U3 O1 U2 O3", "poly": "3t+3t^2"}\n', ''),
    (['reverse', TREFOIL], 0, 'U3 O2 U1 O3 U2 O1\n3t+3t^2\n', ''),
    (['--json', 'reverse', TREFOIL], 0, '{"code": "U3 O2 U1 O3 U2 O1", "poly": "3t+3t^2"}\n', ''),
    (['dalt', 'O1 O2 O3 U1 U2 U3'], 0, '1\n', ''),
    (['--json', 'dalt', 'O1 O2 O3 U1 U2 U3'], 0, '{"value": 1}\n', ''),
    (['monotone', 'O1 U1'], 0, 'true\n', ''),
    (['--json', 'monotone', 'O1 U1'], 0, '{"value": true}\n', ''),
    (['onebridge', 'O1 O2 O3 U1 U2 U3'], 0, 'true\n', ''),
    (['--json', 'onebridge', 'O1 O2 O3 U1 U2 U3'], 0, '{"value": true}\n', ''),
    (['mirror', 'O1 U1'], 0, 'U1 O1\n1+t\n', ''),
    (['--json', 'mirror', 'O1 U1'], 0, '{"code": "U1 O1", "poly": "1+t"}\n', ''),
    (['cc', '--crossing', '1', TREFOIL], 0, 'U1 U2 O3 O1 O2 U3\n1+2t+2t^2+t^3\n', ''),
    (['--json', 'cc', '--crossing', '1', TREFOIL], 0, '{"code": "U1 U2 O3 O1 O2 U3", "poly": "1+2t+2t^2+t^3"}\n', ''),
    (['kink', '--type', '1a', '--edge', '1', TREFOIL], 0, 'O1 U2 O4 U4 O3 U1 O2 U3\n4t+4t^2\n', ''),
    (['--json', 'kink', '--type', '1a', '--edge', '1', TREFOIL], 0, '{"code": "O1 U2 O4 U4 O3 U1 O2 U3", "poly": "4t+4t^2"}\n', ''),
    (['kink', '--type', '1b', '--edge', '1', TREFOIL], 0, 'O1 U2 U4 O4 O3 U1 O2 U3\nt+4t^2+3t^3\n', ''),
    (['--json', 'kink', '--type', '1b', '--edge', '1', TREFOIL], 0, '{"code": "O1 U2 U4 O4 O3 U1 O2 U3", "poly": "t+4t^2+3t^3"}\n', ''),
    (['fg', '--crossing', '1', TREFOIL], 0, 'f: t+2t^2\ng: 2t+t^2\npredicted: 1+2t+2t^2+t^3\n', ''),
    (['--json', 'fg', '--crossing', '1', TREFOIL], 0, '{"f": "t+2t^2", "g": "2t+t^2", "predicted": "1+2t+2t^2+t^3"}\n', ''),
    (['connect', TREFOIL, 'O1 U1', '--edge', '5', '--edge2', '1'], 0, 'O1 U2 O3 U1 O2 U3 O4 U4\n4t+4t^2\n', ''),
    (['--json', 'connect', TREFOIL, 'O1 U1', '--edge', '5', '--edge2', '1'], 0, '{"code": "O1 U2 O3 U1 O2 U3 O4 U4", "poly": "4t+4t^2"}\n', ''),
    (['checkpoly', '3t+3t^2'], 0, 'Accept: k=1 l=1 m=3\n', ''),
    (['--json', 'checkpoly', '3t+3t^2'], 0, '{"accepted": true, "k": 1, "l": 1, "m": [3]}\n', ''),
    (['checkpoly', 't+t^2'], 0, 'Reject: SumTooSmall\n', ''),
    (['--json', 'checkpoly', 't+t^2'], 0, '{"accepted": false, "reason": "SumTooSmall"}\n', ''),
    (['checkpoly', '0:1,2,2,1'], 0, 'Accept: k=0 l=3 m=1,1,1\n', ''),
    (['--json', 'checkpoly', '0:1,2,2,1'], 0, '{"accepted": true, "k": 0, "l": 3, "m": [1, 1, 1]}\n', ''),
    (['checkpoly', '2+2t'], 0, 'Accept: k=0 l=1 m=2\n', ''),
    (['--json', 'checkpoly', '2+2t'], 0, '{"accepted": true, "k": 0, "l": 1, "m": [2]}\n', ''),
    (['witness', '3t+3t^2'], 0, 'O1 U2 O3 U3 O2 U1\n3t+3t^2\n', ''),
    (['--json', 'witness', '3t+3t^2'], 0, '{"code": "O1 U2 O3 U3 O2 U1", "poly": "3t+3t^2"}\n', ''),
    (['witness', '0:1,2,2,1'], 0, 'O1 O2 O3 U1 U2 U3\n1+2t+2t^2+t^3\n', ''),
    (['--json', 'witness', '0:1,2,2,1'], 0, '{"code": "O1 O2 O3 U1 U2 U3", "poly": "1+2t+2t^2+t^3"}\n', ''),
    (['witness', 't+t^2'], 3, 'Reject: SumTooSmall\n', ''),
    (['--json', 'witness', 't+t^2'], 3, '{"accepted": false, "reason": "SumTooSmall"}\n', ''),
    (['verify', '--max-crossings', '0'], 0, 'checked 1 diagrams (crossings 0..0), 8 checks, 0 violations\n', ''),
    (['--json', 'verify', '--max-crossings', '0'], 0, '{\n  "crossings_checked": [\n    0,\n    0\n  ],\n  "diagrams_checked": 1,\n  "violations": [],\n  "checks_run": {\n    "gap-free": 1,\n    "lower-degree-is-warping-degree": 1,\n    "mirror-reflects": 1,\n    "monotone-iff-nonzero-constant-term": 1,\n    "orientation-reverse-reflects": 1,\n    "recognition-soundness": 1,\n    "span-complement-identity": 1,\n    "span-orientation-mirror-invariance": 1\n  }\n}\n', ''),
    (['verify', '--max-crossings', '1'], 0, 'checked 3 diagrams (crossings 0..1), 110 checks, 0 violations\n', ''),
    (['span', '--braid', '1 1 1', '--strands', '2'], 0, '1\n', ''),
    (['--json', 'span', '--braid', '1 1 1', '--strands', '2'], 0, '{"value": 1}\n', ''),
    (['mirror', '--braid', '1 -2 1 -2', '--strands', '3'], 0, 'U1- O2+ U4+ O1- U3- O4+ U2+ O3-\n4t^2+4t^3\n', ''),
    (['--json', 'mirror', '--braid', '1 -2 1 -2', '--strands', '3'], 0, '{"code": "U1- O2+ U4+ O1- U3- O4+ U2+ O3-", "poly": "4t^2+4t^3"}\n', ''),
    (['--canonical', 'mirror', TREFOIL], 0, 'O1 U2 O3 U1 O2 U3\n3t+3t^2\n', ''),
    (['--json', '--canonical', 'mirror', TREFOIL], 0, '{"code": "O1 U2 O3 U1 O2 U3", "poly": "3t+3t^2"}\n', ''),
    (['--canonical', 'reverse', 'O3 U1 O2 U3 O1 U2'], 0, 'O1 U2 O3 U1 O2 U3\n3t+3t^2\n', ''),
    (['--json', '--canonical', 'reverse', 'O3 U1 O2 U3 O1 U2'], 0, '{"code": "O1 U2 O3 U1 O2 U3", "poly": "3t+3t^2"}\n', ''),
    (['--canonical', 'cc', '--crossing', '7', 'O5 U7 O9 U5 O7 U9'], 0, 'O1 O2 O3 U1 U2 U3\n1+2t+2t^2+t^3\n', ''),
    (['--json', '--canonical', 'cc', '--crossing', '7', 'O5 U7 O9 U5 O7 U9'], 0, '{"code": "O1 O2 O3 U1 U2 U3", "poly": "1+2t+2t^2+t^3"}\n', ''),
    (['--canonical', 'kink', '--type', '1b', '--edge', '3', TREFOIL], 0, 'O1 O2 U3 O4 U2 O3 U4 U1\nt+4t^2+3t^3\n', ''),
    (['--json', '--canonical', 'kink', '--type', '1b', '--edge', '3', TREFOIL], 0, '{"code": "O1 O2 U3 O4 U2 O3 U4 U1", "poly": "t+4t^2+3t^3"}\n', ''),
    (['--canonical', 'connect', 'O1 U1', TREFOIL, '--edge', '1', '--edge2', '2'], 0, 'O1 O2 U2 U3 O4 U1 O3 U4\n3t+4t^2+t^3\n', ''),
    (['--json', '--canonical', 'connect', 'O1 U1', TREFOIL, '--edge', '1', '--edge2', '2'], 0, '{"code": "O1 O2 U2 U3 O4 U1 O3 U4", "poly": "3t+4t^2+t^3"}\n', ''),
    (['--canonical', 'witness', '0:1,2,2,1'], 0, 'O1 O2 O3 U1 U2 U3\n1+2t+2t^2+t^3\n', ''),
    (['--json', '--canonical', 'witness', '0:1,2,2,1'], 0, '{"code": "O1 O2 O3 U1 U2 U3", "poly": "1+2t+2t^2+t^3"}\n', ''),
    (['--canonical', 'mirror', '--braid', '1 -2 1 -2', '--strands', '3'], 0, 'O1+ U2+ O3- U4- O2+ U1+ O4- U3-\n4t^2+4t^3\n', ''),
    (['--json', '--canonical', 'mirror', '--braid', '1 -2 1 -2', '--strands', '3'], 0, '{"code": "O1+ U2+ O3- U4- O2+ U1+ O4- U3-", "poly": "4t^2+4t^3"}\n', ''),
    (['poly', 'O1 X2'], 1, '', "error: bad pass token 'X2' (at token 2)\n"),
    (['--json', 'poly', 'O1 X2'], 1, '', "error: bad pass token 'X2' (at token 2)\n"),
    (['poly', 'O1 U2'], 1, '', 'error: crossing 1 occurs 1 times over, 0 times under\n'),
    (['poly', 'O1 U1 O1'], 1, '', 'error: pass sequence has odd length 3\n'),
    (['poly', TREFOIL, '--braid', '1', '--strands', '2'], 1, '', 'error: give a Gauss code or --braid, not both\n'),
    (['poly', '--braid', '1 1 1'], 1, '', 'error: --braid requires --strands\n'),
    (['poly'], 1, '', 'error: missing Gauss code (or --braid/--strands)\n'),
    (['span', '--braid', '1 1', '--strands', '2'], 1, '', 'error: closure has 2 components, not 1\n'),
    (['span', '--braid', '1 x', '--strands', '2'], 1, '', "error: bad braid letter 'x' (at token 2)\n"),
    (['span', '--braid', '3', '--strands', '2'], 1, '', 'error: letter 3 outside [1, 1]\n'),
    (['span', '--braid', '', '--strands', '2'], 1, '', 'error: empty braid word\n'),
    (['span', '--braid', '1', '--strands', '1'], 1, '', 'error: braid needs at least 2 strands\n'),
    (['cc', '--crossing', '9', TREFOIL], 1, '', 'error: no crossing 9 in diagram\n'),
    (['kink', '--type', '1a', '--edge', '6', TREFOIL], 1, '', 'error: edge 6 out of range [0, 6)\n'),
    (['fg', '--crossing', '4', TREFOIL], 1, '', 'error: no crossing 4 in diagram\n'),
    (['dalt', 'O1 O2 U1 U2'], 1, '', 'error: no crossing-change subset is alternating (code fails evenness)\n'),
    (['dalt', ''], 1, '', 'error: dealternating number needs a crossing\n'),
    (['connect', 'O1 X1', 'O1 U1', '--edge', '0', '--edge2', '0'], 1, '', "error: bad pass token 'X1' (at token 2)\n"),
    (['connect', TREFOIL, 'O1 U1', '--edge', '7', '--edge2', '0'], 1, '', 'error: edge 7 out of range [0, 6)\n'),
    (['checkpoly', 't+'], 1, '', "error: bad term '' (at token 2)\n"),
    (['witness', 'x'], 1, '', "error: bad term 'x' (at token 1)\n"),
    (['checkpoly', '0:'], 1, '', "error: bad coefficient '' (at token 1)\n"),
    (['--json', 'witness', 't+t^2'], 3, '{"accepted": false, "reason": "SumTooSmall"}\n', ''),
    (['verify', '--max-crossings', '7'], 1, '', 'error: max_crossings 7 above bound\n'),
    (['verify', '--max-crossings', '-1'], 1, '', 'error: max_crossings -1 below 0\n'),
    # refused from the letters alone, with no per-strand state
    (['span', '--braid', '1', '--strands', '999999999'], 1, '', 'error: closure has 999999998 components, not 1\n'),
    (['poly', 'O0 U0'], 1, '', 'error: crossing ids must be positive, got 0\n'),
    (['fg', '--crossing', '1', ''], 1, '', 'error: decomposition needs at least one crossing\n'),
    # refused from the form alone, before any of its crossings is built
    (['witness', '0:1000000000000,2000000000000,1000000000000'], 1, '', 'error: witness of 2000000000000 crossings above bound 100000\n'),
    (['span', '--braid', '999998 -999999', '--strands', '1000000'], 1, '', 'error: closure has 999998 components, not 1\n'),
    # integers are ASCII [+-]?[0-9]+: no "_" separators, no other digits
    (['checkpoly', '0:1_0'], 1, '', "error: bad coefficient '1_0' (at token 1)\n"),
    (['checkpoly', '0:\u0661,\u0661'], 1, '', "error: bad coefficient '\u0661' (at token 1)\n"),
    (['checkpoly', '\u0661:1'], 1, '', "error: bad list-form degree '\u0661' (at token 1)\n"),
    (['span', '--braid', '1 1_1', '--strands', '12'], 1, '', "error: bad braid letter '1_1' (at token 2)\n"),
    # integer options: surrounding whitespace, Unicode included, is read
    (['cc', '--crossing', ' 1 ', TREFOIL], 0, 'U1 U2 O3 O1 O2 U3\n1+2t+2t^2+t^3\n', ''),
    (['span', '--braid', '1 1 1', '--strands', '2\u3000'], 0, '1\n', ''),
    # int() refuses \x1c-\x1f around a number, though str.strip() drops them
    (['checkpoly', '0:1\x1c,1'], 1, '', "error: bad coefficient '1\\x1c' (at token 1)\n"),
    # term form: spaces around "+" and before "t", never inside a number or
    # around "^"
    (['checkpoly', '1 + 2t + t^2'], 0, 'Accept: k=0 l=2 m=1,1\n', ''),
    (['checkpoly', '1 2t'], 1, '', "error: bad term '1 2t' (at token 1)\n"),
    (['checkpoly', 't^ 1 0'], 1, '', "error: bad term 't^ 1 0' (at token 1)\n"),
    (['checkpoly', '1 1t+1 1t^2'], 1, '', "error: bad term '1 1t' (at token 1)\n"),
]

# argparse usage errors and --help: the exit code only, since argparse's
# text differs between Python versions
USAGE_ERRORS = [
    ([], 1),
    (['no-such-command'], 1),
    (['kink', '--type', '2', '--edge', '0', TREFOIL], 1),
    (['cc', TREFOIL], 1),
    (['span', '--braid', '1', '--strands', 'x'], 1),
    (['connect', TREFOIL], 1),
    (['--help'], 0),
    (['poly', '--help'], 0),
    (['verify', '--max-crossings', 'x'], 1),
    (['poly', TREFOIL, 'extra'], 1),
    # integer options are ASCII [+-]?[0-9]+, as in the notation
    (['span', '--braid', '1 1 1', '--strands', '\u0662'], 1),
    (['span', '--braid', '1 2 3 4 5 6 7 8 9', '--strands', '1_0'], 1),
    (['span', '--braid', '1 1 1', '--strands', '\u0661'], 1),
    (['cc', '--crossing', '\u0662', TREFOIL], 1),
    (['cc', '--crossing', '1_0', 'O10 U10'], 1),
    (['cc', '--crossing', '\u0661', TREFOIL], 1),
    (['kink', '--type', '1a', '--edge', '\u0662', TREFOIL], 1),
    (['kink', '--type', '1a', '--edge', '1_0', TREFOIL + ' O4 U4 O5 U5 O6 U6'], 1),
    (['kink', '--type', '1a', '--edge', '\u0661', TREFOIL], 1),
    (['connect', TREFOIL, 'O1 U1', '--edge', '\u0661', '--edge2', '0'], 1),
    (['connect', TREFOIL, 'O1 U1', '--edge', '0', '--edge2', '\u0661'], 1),
    (['fg', '--crossing', '\u0661', TREFOIL], 1),
    (['verify', '--max-crossings', '\u0661'], 1),
    # int() refuses \x1c-\x1f around a number, whatever else surrounds it
    (['span', '--braid', '1 1 1', '--strands', '2\x1c'], 1),
    (['span', '--braid', '1 1 1', '--strands', '2\x1c\u3000'], 1),
]


@pytest.mark.parametrize("space", ["\x1c", "\x1f", "\x85", "\u3000", "\t", "\x0b"])
@pytest.mark.parametrize("side", ["before", "after"])
def test_integer_readers_agree_on_surrounding_whitespace(capsys, space, side):
    # a list-form coefficient, first or last, and --strands read the same
    # integer rule: int() refuses \x1c-\x1f and reads the other whitespace
    number = space + "2" if side == "before" else "2" + space
    refused = space in "\x1c\x1f"
    strands = run(capsys, "span", "--braid", "1 1 1", "--strands", number)
    assert strands[0] == (1 if refused else 0)
    for position, poly in ((1, f"0:{number},2"), (2, f"0:2,{number}")):
        if refused:
            want = (1, "", f"error: bad coefficient {number!r} (at token {position})\n")
        else:
            want = (0, "Accept: k=0 l=1 m=2\n", "")
        assert run(capsys, "checkpoly", poly) == want


@pytest.mark.parametrize(("argv", "exit_code", "out", "err"), PINNED)
def test_output_pinned(capsys, argv, exit_code, out, err):
    assert run(capsys, *argv) == (exit_code, out, err)


@pytest.mark.parametrize(("argv", "exit_code"), USAGE_ERRORS)
def test_usage_exit_code_pinned(capsys, argv, exit_code):
    assert run(capsys, *argv)[0] == exit_code
