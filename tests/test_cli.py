"""Command-line interface: outputs, exit codes, file handling."""

from __future__ import annotations

import json
import shlex
from pathlib import Path

import pytest

from bipmoore.cli import main
from bipmoore.graphs import BipartiteGraph, format_adjacency, read_adjacency, write_adjacency
from bipmoore.circulant import build_phi_spec, parse_spec

REPO = Path(__file__).resolve().parent.parent
TRANSCRIPTS = Path(__file__).resolve().parent / "cli_transcripts"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound(capsys):
    code, out, _ = run(capsys, "bound", "7", "3")
    assert code == 0
    assert "86" in out
    code, out, _ = run(capsys, "bound", "11", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mooreBound"] == 222
    assert payload["schemaVersion"] == 1


def test_bound_with_order(capsys):
    code, out, _ = run(capsys, "bound", "7", "3", "--order", "80", "--json")
    assert code == 0
    assert json.loads(out)["defect"] == 6


def test_bound_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "1", "3"])
    assert exc.value.code == 2


def test_bound_rejects_order_below_1(capsys):
    code, out, err = run(capsys, "bound", "7", "3", "--order", "-5")
    assert code == 2
    assert out == ""
    assert "order must be at least 1" in err


def test_build_and_check_round_trip(tmp_path, capsys):
    out_file = tmp_path / "phi11_4.adj"
    code, out, _ = run(capsys, "build", "--spec", "phi 11: 4", "--out", str(out_file))
    assert code == 0
    assert "22 vertices" in out
    g = read_adjacency(out_file)
    assert g == build_phi_spec(parse_spec("phi 11: 4"))
    code, out, _ = run(
        capsys, "check", "--in", str(out_file),
        "--expect-diameter", "3", "--expect-defect", "4", "--expect-degree", "4",
    )
    assert code == 0


def test_check_spec_json(capsys):
    code, out, _ = run(capsys, "check", "--spec", "phi 11: 4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["diameter"] == 3
    assert payload["girth"] == 4
    assert payload["defect"] == 4


def test_check_expectation_failure(capsys):
    code, _, err = run(capsys, "check", "--spec", "phi 12: 4", "--expect-diameter", "3")
    assert code == 1
    assert "FAILED" in err


def test_check_text_and_every_expectation_failure(capsys):
    code, out, err = run(
        capsys, "check", "--spec", "phi 11: 4", "--expect-diameter", "4",
        "--expect-girth", "6", "--expect-degree", "5", "--expect-defect", "2",
    )
    assert code == 1
    assert out == (
        "order 22 (11+11)\nregular, degree 4\ndiameter 3\ngirth 4\n"
        "Moore bound 26, defect 4\n"
    )
    assert err == (
        "FAILED: diameter 3 != expected 4\nFAILED: girth 4 != expected 6\n"
        "FAILED: not 5-regular\nFAILED: defect 4 != expected 2\n"
    )


def test_check_disconnected_reports_infinite(tmp_path, capsys):
    path = tmp_path / "two_squares.adj"
    path.write_bytes(b"4 4\nx0: 0 1\nx1: 0 1\nx2: 2 3\nx3: 2 3\n")
    code, out, _ = run(capsys, "check", "--in", str(path), "--json")
    assert code == 0
    assert json.loads(out)["diameter"] == "infinite"
    code, out, err = run(capsys, "check", "--in", str(path), "--expect-diameter", "3", "--expect-defect", "0")
    assert code == 1
    assert "diameter infinite\n" in out
    assert err == "FAILED: diameter infinite != expected 3\nFAILED: defect None != expected 0\n"


def test_check_edge_list_input(tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_text("# demo\n0 0\n0 1\n1 0\n1 1\n")
    code, out, _ = run(capsys, "check", "--in", str(path), "--json")
    assert code == 0
    assert json.loads(out)["order"] == 4


def test_check_headerless_edge_list(tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_text("0 0\n0 1\n1 0\n1 1\n")
    code, out, _ = run(capsys, "check", "--in", str(path), "--json")
    assert code == 0
    assert json.loads(out)["order"] == 4


def test_check_unparseable_file(tmp_path, capsys):
    path = tmp_path / "junk.txt"
    path.write_text("zzz\n")
    code, _, err = run(capsys, "check", "--in", str(path))
    assert code == 2
    assert "adjacency" in err and "edge list" in err


def test_search_text_and_expectations(capsys):
    code, out, _ = run(capsys, "search", "--d", "7", "--m", "41", "--expect-none")
    assert code == 0
    assert "0 solutions, exhausted" in out
    code, _, err = run(capsys, "search", "--d", "7", "--m", "41", "--expect-some")
    assert code == 1
    code, _, _ = run(capsys, "search", "--d", "4", "--m", "11", "--expect-some")
    assert code == 0


def test_search_json_deterministic_across_workers(capsys):
    for d, m in (("6", "25"), ("8", "45"), ("10", "89")):
        outputs = []
        for workers in ("1", "2"):
            code, out, _ = run(
                capsys, "search", "--d", d, "--m", m, "--json", "--workers", workers
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


@pytest.mark.slow
def test_long_scan_json_identical_across_workers(capsys):
    """``max-m --d 10 --from 79``, a scan of ten empty moduli down to the
    witness at 79, is the pool's real traffic: its JSON is the same at one
    and two workers."""
    outputs = []
    for workers in ("1", "2"):
        code, out, _ = run(capsys, "max-m", "--d", "10", "--from", "79", "--json", "--workers", workers)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["bestM"] == 79


@pytest.mark.parametrize(
    "prefix, message",
    [
        ("1_0", "not a plain decimal integer: '1_0'"),
        ("4,+7", "not a plain decimal integer: '+7'"),
        ("\u0661\u0660", "not a plain decimal integer: '\u0661\u0660'"),
        ("-3", "offset -3 outside [2, 17]"),
    ],
)
def test_search_prefix_takes_only_plain_decimals(capsys, prefix, message):
    code, out, err = run(capsys, "search", "--d", "5", "--m", "19", "--prefix", prefix)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_search_budget_exit(capsys):
    code, _, _ = run(capsys, "search", "--d", "7", "--m", "41", "--budget", "10")
    assert code == 3


def test_search_prefix(capsys):
    code, out, _ = run(
        capsys, "search", "--d", "11", "--m", "95",
        "--prefix", "4,7,16,27,38,52,62,81", "--json",
    )
    assert code == 0
    assert json.loads(out)["solutions"] == ["phi 95: 4,7,16,27,38,52,62,81"]


def test_max_m(capsys):
    code, out, _ = run(capsys, "max-m", "--d", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bestM"] == 11
    assert payload["witnesses"] == ["phi 11: 4"]


#: ``(argv, exit status, standard output)`` of the text-mode search and scan.
TEXT_CASES = [
    (
        ("search", "--d", "4", "--m", "11"),
        0,
        "1 solutions, exhausted\n  phi 11: 4\n"
        "nodes 1, bound prunes 0, symmetry prunes 4\n",
    ),
    (
        ("search", "--d", "9", "--m", "65", "--first"),
        0,
        "1 solutions, partial\n  phi 65: 5,9,27,34,50,53\n"
        "nodes 14627, bound prunes 12780, symmetry prunes 6\n",
    ),
    (
        ("max-m", "--d", "5"),
        0,
        "largest modulus in [5, 19] with a witness: 19\n  phi 19: 5,8\n",
    ),
    (
        ("max-m", "--d", "7", "--from", "40", "--to", "41"),
        0,
        "no witness for any modulus in [40, 41]\n",
    ),
    (
        ("max-m", "--d", "7", "--budget", "10"),
        3,
        "inconclusive: budget ran out before the range was settled\n",
    ),
]


@pytest.mark.parametrize(
    "argv, expected_code, expected_out",
    TEXT_CASES,
    ids=[" ".join(argv) for argv, *_ in TEXT_CASES],
)
def test_search_and_max_m_text(capsys, argv, expected_code, expected_out):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (expected_code, expected_out, "")


def test_analyze(tmp_path, capsys):
    path = tmp_path / "phi11_4.adj"
    code, _, _ = run(capsys, "build", "--spec", "phi 11: 4", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "analyze", "--in", str(path), "--d", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "schemaVersion", "cycles", "s2", "s1", "s0", "v2", "v1", "v0", "gamma2", "gamma1",
        "gamma0", "residue", "disjoint", "observations", "degreeClaimed", "defect", "applicable",
    ]
    assert payload["gamma1"][0]["recognized"] is True
    assert payload["gamma1"][0]["phiM"] == 11
    names = {e["name"]: e["status"] for e in payload["observations"]}
    assert names["gamma1_shift_invariance"] == "pass"


def test_analyze_failure_exit(tmp_path, capsys):
    # two theta blocks with an illegal cross edge at the defect-4 order
    edges = [(b, m) for b in (0, 1) for m in (0, 1, 2)]
    edges += [(b, m) for b in (2, 3) for m in (3, 4, 5)]
    edges.append((0, 3))
    from bipmoore.graphs import BipartiteGraph, write_adjacency

    g = BipartiteGraph.from_edges(11, 11, edges)
    path = tmp_path / "bad.adj"
    write_adjacency(g, path)
    code, out, _ = run(capsys, "analyze", "--in", str(path), "--d", "4")
    assert code == 1
    assert "no_edge_gamma2_gamma2" in out


def test_iso_command(tmp_path, capsys):
    a = tmp_path / "a.adj"
    b = tmp_path / "b.adj"
    run(capsys, "build", "--spec", "phi 11: 4", "--out", str(a))
    run(capsys, "build", "--spec", "phi 11: 7", "--out", str(b))
    code, out, _ = run(capsys, "iso", "--a", str(a), "--b", str(b))
    assert code == 0
    assert "isomorphic" in out
    code, _, _ = run(capsys, "iso", "--a", str(a), "--b", str(b), "--expect-non-isomorphic")
    assert code == 1
    code, out, _ = run(capsys, "iso", "--a", str(a), "--b", str(b), "--json")
    payload = json.loads(out)
    assert payload["isomorphic"] is True
    assert len(payload["mapping"]) == 22


def test_iso_over_cap_is_budget_exit(tmp_path, capsys):
    lines = ["260 260"] + [f"x{i}:" for i in range(260)]
    path = tmp_path / "big.adj"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "iso", "--a", str(path), "--b", str(path))
    assert code == 3
    assert "budget" in err


def test_audit_command(capsys):
    code, out, _ = run(capsys, "audit", "--d", "7")
    assert code == 0
    assert "nonexistence-confirmed" in out
    assert "86" in out and "82" in out and "80" in out
    code, out, _ = run(capsys, "audit", "--d", "7", "--json")
    assert json.loads(out)["verdict"] == "nonexistence-confirmed"
    code, _, _ = run(capsys, "audit", "--d", "6")
    assert code == 1


RECORDS = (
    "phi 95: 4,7,16,27,38,52,62,81",
    "phi 95: 4,16,30,43,51,62,71,89",
    "phi 95: 11,15,21,28,37,40,45,63",
)


def read_transcript(name: str) -> tuple[int, str, str]:
    """Exit status, stdout and stderr of one golden transcript file."""
    text = (TRANSCRIPTS / f"{name}.txt").read_text(encoding="utf-8")
    head, rest = text.split("--- stdout\n", 1)
    out, err = rest.split("--- stderr\n", 1)
    return int(head.splitlines()[1].removeprefix("exit ")), out, err


def test_verify_known_reports_isomorphism_truth(capsys):
    """Per-graph checks hold; the published non-isomorphism claim does not,
    so the command exits nonzero naming the failing pairs."""
    code, out, err = run(capsys, "verify-known")
    assert code == 1
    assert (code, out, err) == read_transcript("verify-known")


def test_verify_known_export(tmp_path, capsys):
    """``--export DIR`` writes the three records there; ``--out-dir`` is no
    option."""
    with pytest.raises(SystemExit) as exc:
        main(["verify-known", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--out-dir" in capsys.readouterr().err
    code, out, err = run(capsys, "verify-known", "--export", str(tmp_path))
    assert code == 1  # the isomorphism finding does not block the export
    names = [
        "phi95_4_7_16_27_38_52_62_81.adj",
        "phi95_4_16_30_43_51_62_71_89.adj",
        "phi95_11_15_21_28_37_40_45_63.adj",
    ]
    _, checks, checks_err = read_transcript("verify-known")
    assert out == checks + "".join(f"exported {tmp_path / name}\n" for name in names)
    assert err == checks_err
    files = sorted(tmp_path.glob("*.adj"))
    assert len(files) == 3
    for name, text in zip(names, RECORDS):
        want = format_adjacency(build_phi_spec(parse_spec(text))).encode()
        assert (tmp_path / name).read_bytes() == want
    g = read_adjacency(files[0])
    assert g.order == 190
    assert format_adjacency(g).encode() == files[0].read_bytes()


def test_tampered_fixture_fails_diameter(capsys):
    # offset 4 -> 5 in the first tuple breaks coverage, hence the diameter
    code, _, err = run(
        capsys, "check", "--spec", "phi 95: 5,7,16,27,38,52,62,81",
        "--expect-diameter", "3",
    )
    assert code == 1
    assert "diameter" in err


@pytest.mark.parametrize("value", ["abc", "-4", "0"])
def test_bad_workers_is_usage_error(capsys, value):
    """A non-positive or non-integer ``--workers`` is a usage error for every
    command that takes it."""
    for argv in (["search", "--d", "4", "--m", "11"], ["max-m", "--d", "4"], ["audit", "--d", "4"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--workers", value])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


def test_oversized_graph_file_is_usage_error(tmp_path, monkeypatch, capsys):
    """A 14-byte file naming 2**14 + 1 right vertices exits 2 before any
    graph is built. ``check`` and ``analyze`` read files the same way; they
    are not run here, as a missing cap would set them to work on the whole
    graph, while ``iso`` then stops at its own order cap."""
    monkeypatch.chdir(tmp_path)
    Path("big.adj").write_text(f"1 {2**14 + 1}\nx0: 0\n", encoding="ascii")
    code, out, err = run(capsys, "iso", "--a", "big.adj", "--b", "big.adj")
    assert (code, out) == (2, "")
    assert err.startswith("error: big.adj: not an adjacency list (vertex counts must lie in 0..16384)")


def test_bad_spec_is_usage_error(capsys):
    code, _, err = run(capsys, "build", "--spec", "phi 4: 2")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--spec", "phi 16385:"], "error: modulus 16385 above 16384\n"),
        (["build", "--spec", "phi 70: " + ",".join(map(str, range(2, 64)))], "error: degree 65 above 64\n"),
    ],
)
def test_spec_over_a_cap_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", message)


def two_theta_graph() -> BipartiteGraph:
    """Two theta blocks with an illegal cross edge at the defect-4 order."""
    edges = [(b, m) for b in (0, 1) for m in (0, 1, 2)]
    edges += [(b, m) for b in (2, 3) for m in (3, 4, 5)]
    edges.append((0, 3))
    return BipartiteGraph.from_edges(11, 11, edges)


# transcript file name -> command line after ``bipmoore``
GOLDEN_COMMANDS = {
    "bound": "bound 7 3",
    "bound-json": "bound 7 3 --json",
    "bound-order": "bound 7 3 --order 80",
    "bound-order-json": "bound 7 3 --order 80 --json",
    "build": 'build --spec "phi 11: 4"',
    "build-json": 'build --spec "phi 11: 4" --json',
    "build-out": 'build --spec "phi 11: 4" --out out.adj',
    "build-out-json": 'build --spec "phi 11: 4" --out out.adj --json',
    "check-spec-json": 'check --spec "phi 95: 5,7,16,27,38,52,62,81" --json',
    "check-disconnected": "check --in two_squares.adj --expect-diameter 3",
    "analyze": "analyze --in phi11_4.adj --d 4",
    "analyze-json": "analyze --in phi11_4.adj --d 4 --json",
    "analyze-two-theta": "analyze --in two_theta.adj --d 4",
    "analyze-two-theta-json": "analyze --in two_theta.adj --d 4 --json",
    # 1,520 cycles on a 190-vertex graph; its JSON would run to about 160 KB
    "analyze-phi95": "analyze --in phi95_4_16_27_38_52_55_62_81.adj --d 11",
    "iso": "iso --a phi11_4.adj --b phi11_7.adj",
    "iso-records-json": (
        "iso --a phi95_4_7_16_27_38_52_62_81.adj --b phi95_4_16_30_43_51_62_71_89.adj --json"
    ),
    "audit-d6": "audit --d 6",
    "audit-d7": "audit --d 7",
    "audit-d7-budget": "audit --d 7 --budget 10",
    "audit-d7-budget-json": "audit --d 7 --budget 10 --json",
    "max-m-d9-budget": "max-m --d 9 --from 60 --budget 2000",
    "search-d10-budget-json": "search --d 10 --m 89 --budget 10000 --json",
    "search-d8-m45-json": "search --d 8 --m 45 --json",
    "verify-known": "verify-known",
}


def transcript(capsys, command: str) -> str:
    """Exit status, stdout and stderr of one command, as one string."""
    code, out, err = run(capsys, *shlex.split(command))
    return f"$ bipmoore {command}\nexit {code}\n--- stdout\n{out}--- stderr\n{err}"


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_transcript(tmp_path, monkeypatch, capsys, name):
    """Each command's exit status, stdout and stderr match its transcript
    file byte for byte."""
    monkeypatch.chdir(tmp_path)
    write_adjacency(build_phi_spec(parse_spec("phi 11: 4")), "phi11_4.adj")
    write_adjacency(build_phi_spec(parse_spec("phi 11: 7")), "phi11_7.adj")
    write_adjacency(two_theta_graph(), "two_theta.adj")
    two_squares = BipartiteGraph.from_neighbor_lists([[0, 1], [0, 1], [2, 3], [2, 3]], 4)
    write_adjacency(two_squares, "two_squares.adj")
    # named and written as ``verify-known --export`` does
    for text in (*RECORDS[:2], "phi 95: 4,16,27,38,52,55,62,81"):
        spec = parse_spec(text)
        export = f"phi{spec.m}_" + "_".join(map(str, spec.offsets)) + ".adj"
        write_adjacency(build_phi_spec(spec), export)
    got = transcript(capsys, GOLDEN_COMMANDS[name])
    assert got == (TRANSCRIPTS / f"{name}.txt").read_text(encoding="utf-8")


def readme_commands() -> list[list[str]]:
    """The argument lists of the README's "Command line" block."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line\n\n```text\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert all(argv[0] == "bipmoore" for argv in lines)
    return [argv[1:] for argv in lines]


def test_readme_command_block(tmp_path, monkeypatch, capsys):
    """Every README command runs as documented: exit 0, except
    ``verify-known``, which exits 1 on the isomorphic record pairs."""
    monkeypatch.chdir(tmp_path)
    write_adjacency(build_phi_spec(parse_spec("phi 11: 4")), "g1.adj")
    write_adjacency(build_phi_spec(parse_spec("phi 12: 4")), "g2.adj")
    commands = readme_commands()
    assert len(commands) == 13
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == (1 if argv[0] == "verify-known" else 0), (argv, out, err)
