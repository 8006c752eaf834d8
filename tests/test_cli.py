import subprocess
import sys
from pathlib import Path

import pytest

import booltermorders
from booltermorders.catalog import noncoherent_five, rigid_noncoherent_six
from booltermorders.cli import main
from booltermorders.core import parse_order, serialize_order


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.bto"
    path.write_text(serialize_order(noncoherent_five()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "5", "--count-only")
    assert code == 0
    assert out == "classes=546 total=65520\n"


def test_enumerate_out_dir(capsys, tmp_path):
    out_dir = tmp_path / "orders"
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--out", str(out_dir))
    assert code == 0
    files = sorted(out_dir.glob("*.bto"))
    assert len(files) == 2
    for f in files:
        parse_order(f.read_text())


def test_closed_stdout_exits_2_without_traceback():
    # the reader takes one line and leaves; the writer gets a broken pipe
    with subprocess.Popen(
        [sys.executable, "-m", "booltermorders.cli", "enumerate", "--n", "5", "--all-labelings"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=Path(booltermorders.__file__).parents[1],
    ) as proc:
        assert proc.stdout.readline() == "n=5\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 2  # stderr holds at most one line, so no pipe fills
        err = proc.stderr.read()
    assert "Traceback" not in err
    assert err.count("error: ") <= 1 and err.count("\n") <= 1


def test_charpoly_pinned(capsys):
    code, out, _ = run(capsys, "charpoly", "--n", "2")
    assert code == 0
    assert out == "x^2 - 4x + 3 = (x-1)(x-3)\n"


def test_regions(capsys):
    code, out, _ = run(capsys, "regions", "--n", "3")
    assert code == 0
    assert out == "regions=96\n"


def test_arrangement_commands_reject_oversized_n(capsys):
    # n = 7 cannot finish, so it is refused before any point is counted
    for command in ("charpoly", "regions"):
        for n in ("0", "7"):
            code, out, err = run(capsys, command, "--n", n)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ")


def test_coherence_incoherent(capsys, example_file):
    code, out, _ = run(capsys, "coherence", example_file)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "incoherent"
    assert all(line.startswith("pair: ") and " x" in line for line in lines[1:])
    assert len(lines) > 1


def test_coherence_coherent(capsys, tmp_path):
    code, out, _ = run(capsys, "realize", "--w", "7,10,16,20,22")
    assert code == 0
    path = tmp_path / "coh.bto"
    path.write_text(out)
    code, out, _ = run(capsys, "coherence", str(path))
    assert code == 0
    assert out.startswith("coherent w=(")


def test_coherence_empty_order(capsys, tmp_path):
    path = tmp_path / "empty.bto"
    path.write_text("n=0\n-\n")
    code, out, _ = run(capsys, "coherence", str(path))
    assert code == 0
    assert out == "coherent w=()\n"


def test_realize_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "realize", "--w", "1,2,4")
    assert code == 0
    order = parse_order(out)
    assert order.chain == tuple(range(8))


def test_realize_tie(capsys):
    code, _, err = run(capsys, "realize", "--w", "1,2,3")
    assert code == 1
    assert "tie" in err


def test_realize_too_many_weights(capsys):
    code, out, err = run(capsys, "realize", "--w", ",".join(str(2**i) for i in range(17)))
    assert code == 2 and not out
    assert err.startswith("error: ")


def test_flips_listing(capsys, example_file):
    code, out, _ = run(capsys, "flips", example_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "primitive=11 flippable=5"
    assert sum(1 for line in lines[1:] if line.endswith("*")) == 5


def test_flip_and_verify(capsys, example_file, tmp_path):
    code, out, _ = run(capsys, "flip", example_file, "--pair", "4<1,2")
    assert code == 0
    path = tmp_path / "flipped.bto"
    path.write_text(out)
    code, out, _ = run(capsys, "coherence", str(path))
    assert code == 0
    assert out.strip() == "coherent w=(7,10,16,20,22)"


def test_flip_rejects_bad_pair(capsys, example_file):
    code, _, err = run(capsys, "flip", example_file, "--pair", "1<3")
    assert code == 1


def test_flipgraph_connected(capsys):
    code, out, _ = run(capsys, "flipgraph", "--n", "4", "--check-connected")
    assert code == 0
    assert "connected: yes" in out
    assert out.startswith("vertices=14 ")


def test_flipgraph_all_labelings_refuses_n6(capsys, monkeypatch):
    from booltermorders import enumeration

    def unreachable(*args, **kwargs):
        raise AssertionError("enumerate_orders reached")

    monkeypatch.setattr(enumeration, "enumerate_orders", unreachable)
    code, out, err = run(capsys, "flipgraph", "--n", "6", "--all-labelings")
    assert code == 2 and out == ""
    assert err == "error: labeled mode needs n <= 5, got 6\n"


def test_certify_valid(capsys, example_file, tmp_path):
    cert = tmp_path / "cert.bto"
    cert.write_text(
        "pair: 4 < 1,2 x1\npair: 2,3 < 1,4 x1\npair: 1,5 < 2,4 x1\npair: 1,2,4 < 3,5 x1\n"
    )
    code, out, _ = run(capsys, "certify", example_file, "--cert", str(cert))
    assert code == 0
    assert out == "certificate: valid\n"


def test_certify_invalid(capsys, example_file, tmp_path):
    cert = tmp_path / "cert.bto"
    cert.write_text("pair: 1 < 2 x1\n")
    code, out, _ = run(capsys, "certify", example_file, "--cert", str(cert))
    assert code == 1
    assert out.startswith("certificate: invalid")


def test_validate(capsys, example_file, tmp_path):
    code, out, _ = run(capsys, "validate", example_file)
    assert code == 0 and out == "valid\n"
    bad = tmp_path / "bad.bto"
    bad.write_text("n=2\n-\n1,2\n1\n2\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1 and out.startswith("invalid")


def test_localize_check(capsys, example_file):
    code, out, _ = run(capsys, "localize", example_file, "--check")
    assert code == 0
    assert "localization: yes" in out
    assert "mu-conditions: ok" in out


def test_localize_check_prints_failing_coline(capsys, tmp_path, monkeypatch):
    # no order file gives a non-localization, so the signature is swapped in
    from booltermorders import omatroid

    path = tmp_path / "o.bto"
    path.write_text("n=2\n-\n1\n2\n1,2\n")
    bad = omatroid.Signature(2, {(1, 0): 1, (1, 1): 1, (0, 1): 0, (1, -1): -1})
    monkeypatch.setattr(omatroid, "mu_from_order", lambda order: bad)
    code, out, _ = run(capsys, "localize", str(path), "--check")
    assert code == 1
    assert out.splitlines()[:2] == [
        "localization: no",
        "witness: coline +0, 0+ has signs ++0+--0- on X, X+Y, Y, Y-X, -X, -X-Y, -Y, X-Y",
    ]


def test_localize_dump(capsys, tmp_path):
    path = tmp_path / "o.bto"
    path.write_text("n=2\n-\n1\n2\n1,2\n")
    code, out, _ = run(capsys, "localize", str(path))
    assert code == 0
    assert out.splitlines() == ["++ +", "+0 +", "+- -", "0+ +"]


def test_baues_coherent_above(capsys, tmp_path):
    path = tmp_path / "rigid.bto"
    path.write_text(serialize_order(rigid_noncoherent_six()))
    code, out, _ = run(capsys, "baues", str(path), "--coherent-above")
    assert code == 0
    assert out.splitlines()[0] == "coherent-above-only-trivial: yes"


def test_baues_coherent_above_lex_order(capsys, tmp_path):
    code, text, _ = run(capsys, "realize", "--w", "1,2,4")
    assert code == 0
    path = tmp_path / "lex3.bto"
    path.write_text(text)
    code, out, err = run(capsys, "baues", str(path), "--coherent-above")
    assert (code, out, err) == (
        1,
        "coherent-above-only-trivial: no\ncoarsening w=(1,1,2) levels=5\n",
        "",
    )


def test_baues_partial(capsys, tmp_path):
    path = tmp_path / "p.bto"
    path.write_text("n=2\n-\n1=2\n1,2\n")
    code, out, _ = run(capsys, "baues", str(path))
    assert code == 0
    assert out == "levels=3 coherent=yes\n"


def test_missing_file(capsys):
    code, _, err = run(capsys, "coherence", "/nonexistent/file.bto")
    assert code == 2
    assert "error" in err


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["validate"],
        ["coherence"],
        ["flips"],
        ["flip", "--pair", "1<2"],
        ["localize"],
        ["localize", "--check"],
        ["baues"],
        ["baues", "--coherent-above"],
        ["certify", "--cert", "CERT"],
    ],
    ids=" ".join,
)
@pytest.mark.parametrize(
    "text, expected",
    [("n=2\n-\n1,2\n1\n2\n", 1), ("n=2\n-\n1\n", 2)],
    ids=["invalid", "malformed"],
)
def test_exit_code_contract(capsys, tmp_path, argv, text, expected):
    # a well-formed invalid order answers "no" (1); a malformed file is an error (2)
    path = tmp_path / "order.bto"
    path.write_text(text)
    cert = tmp_path / "cert.txt"
    cert.write_text("pair: 1 < 2 x1\n")
    command, *options = argv
    options = [str(cert) if o == "CERT" else o for o in options]
    code, out, err = run(capsys, command, str(path), *options)
    assert code == expected
    if expected == 1:
        assert out.startswith("invalid: ") and not err
    else:
        assert err.startswith("error: ") and not out


def test_certify_rejects_invalid_order(capsys, tmp_path):
    # the certificate cancels and is increasing in this invalid order
    path = tmp_path / "bad3.bto"
    path.write_text("n=3\n-\n2\n1,2\n3\n1\n1,3\n2,3\n1,2,3\n")
    cert = tmp_path / "c.txt"
    cert.write_text("pair: 1,2 < 3 x1\npair: 3 < 1 x1\npair: - < 2 x1\n")
    code, out, _ = run(capsys, "certify", str(path), "--cert", str(cert))
    assert code == 1
    assert out.startswith("invalid: ")


def test_invalid_order_reason_is_the_same_everywhere(capsys, tmp_path):
    path = tmp_path / "bad.bto"
    cert = tmp_path / "cert.txt"
    cert.write_text("pair: 1 < 2 x1\n")
    for text, reason in [
        ("n=2\n-\n1\n1,2\n2\n", "comparison of - and 1 changes under 2"),  # union axiom
        ("n=2\n1\n-\n2\n1,2\n", "the empty set must lie at the bottom level"),  # structure
    ]:
        path.write_text(text)
        for command in (["coherence"], ["flips"], ["validate"], ["localize"],
                        ["baues", "--coherent-above"], ["certify", "--cert", str(cert)]):
            assert run(capsys, *command, str(path)) == (1, f"invalid: {reason}\n", ""), command


def test_validate_reads_partial_orders(capsys, tmp_path):
    path = tmp_path / "p.bto"
    path.write_text("n=2\n-\n1=2  # tie\n1,2\n")
    assert run(capsys, "validate", str(path)) == (0, "valid\n", "")
    path.write_text("n=2\n-\n1\n2=1,2\n")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1 and out.startswith("invalid: ")


def test_oversized_header_is_an_error(capsys, tmp_path):
    path = tmp_path / "huge.bto"
    path.write_text("n=99999999999999999999\n-\n")
    code, out, err = run(capsys, "baues", str(path))
    assert code == 2 and not out
    assert "out of range" in err


@pytest.mark.parametrize("line", ["1<2", "1 2 x1", "1<2xa", "pair: 1 < 2 x", "pair: 1 < 2 x-1"])
def test_malformed_certificate_line_names_the_form(capsys, example_file, tmp_path, line):
    cert = tmp_path / "cert.txt"
    cert.write_text(f"# comment\n{line}\n")
    invalid = tmp_path / "bad.bto"
    invalid.write_text("n=2\n-\n1\n1,2\n2\n")  # breaks the union axiom
    # the certificate is read before the order axioms are checked
    for path in (example_file, str(invalid)):
        assert run(capsys, "certify", path, "--cert", str(cert)) == (
            2, "", "error: bad certificate line 2: expected 'pair: LEFT < RIGHT xMULT'\n"
        )


@pytest.mark.parametrize("check", [[], ["--check"]])
def test_localize_refuses_n_above_the_signature_bound(capsys, tmp_path, check):
    code, text, _ = run(capsys, "realize", "--w", ",".join(str(1 << i) for i in range(9)))
    assert code == 0
    path = tmp_path / "lex9.bto"
    path.write_text(text)
    assert run(capsys, "localize", str(path), *check) == (
        2, "", "error: n must be at most 8 for a signature, got 9\n"
    )
