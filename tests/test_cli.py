"""CLI surface tests: argument handling, exit codes, and JSON output."""
import json

from dlhecke import cli


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exponents_text(capsys):
    code, out, _ = run(capsys, "exponents", "--spec", "D4")
    assert code == 0
    assert "1" in out and "5" in out


def test_roots_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "roots", "--spec", "A1!",
                       "--depth", "2")
    assert code == 0
    payload = json.loads(out)
    coords = {tuple(r["coords"]) for r in payload["roots"]}
    assert {(1, 0), (0, 1), (1, 1)} == coords
    assert payload["header"]["spec"] == "A1!"


def test_exponents_e6_exit_zero(capsys):
    code, out, _ = run(capsys, "--format", "json", "exponents", "--spec",
                       "E6")
    assert code == 0
    assert json.loads(out)["exponents"] == [1, 4, 5, 7, 8, 11]


def test_weyl_layers(capsys):
    code, out, _ = run(capsys, "--format", "json", "weyl", "--spec", "A2",
                       "--max-length", "5")
    assert code == 0
    assert json.loads(out)["layer_sizes"] == [1, 2, 2, 1]


def test_character_json_round_trips(capsys):
    code, out, _ = run(capsys, "--format", "json", "character",
                       "--spec", "A1!", "--labels", "0,1", "--depth", "2")
    assert code == 0
    series = json.loads(out)["series"]
    betas = {tuple(t["beta"]) for t in series["terms"]}
    assert betas == {(0, 0), (0, 1), (1, 1)}


def test_whittaker_finite(capsys):
    code, out, _ = run(capsys, "--format", "json", "whittaker",
                       "--spec", "A1", "--labels", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["stabilized"] is True
    assert len(payload["series"]["terms"]) == 4


def test_verify_finite_cs_exit_zero(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "finite-cs",
                       "--spec", "A2", "--labels", "1,1")
    assert code == 0
    assert json.loads(out)["reports"][0]["verdict"] == "pass"


def test_verify_hecke_relations(capsys):
    code, _, _ = run(capsys, "verify", "hecke-relations", "--spec", "A1!",
                     "--count", "5")
    assert code == 0


def test_usage_error_exit_64(capsys):
    code, _, err = run(capsys, "verify", "finite-cs")
    assert code == 64 and "spec" in err
    code, _, _ = run(capsys, "verify", "finite-cs", "--spec", "A2",
                     "--labels", "1")
    assert code == 64
    code, _, _ = run(capsys, "roots", "--spec", "B7")
    assert code in (1, 64)


def test_malformed_vectors_are_usage_errors(capsys):
    for argv in (["--nu", "a,b"], ["--nu", "1,1,1"]):
        code, _, err = run(capsys, "verify", "gk-limit", "--spec", "A1!",
                           *argv)
        assert code == 64 and "usage error" in err
    code, _, err = run(capsys, "verify", "recursion", "--spec", "A2",
                       "--labels", "1,1", "--wprime", "x", "--i", "1")
    assert code == 64 and "usage error" in err


def test_library_errors_have_their_own_exit_code(capsys):
    code, _, err = run(capsys, "--layer-cap", "2", "whittaker", "--spec",
                       "A3", "--labels", "1,1,1")
    assert code == cli.EXIT_ERROR == 3 and "exceeds cap" in err
    code, _, err = run(capsys, "verify", "recursion", "--spec", "A2",
                       "--labels", "1,1", "--wprime", "1,1", "--i", "2")
    assert code == 3 and "not reduced" in err


def test_bad_rational_q(capsys):
    code, _, err = run(capsys, "verify", "affine-cs", "--spec", "A1!",
                       "--labels", "0,1", "--q", "zebra")
    assert code == 64



def test_hecke_relations_count_below_one_is_usage_error(capsys):
    for count in ("0", "-5"):
        code, out, err = run(capsys, "verify", "hecke-relations", "--spec",
                             "A2", "--count", count)
        assert code == 64 and "--count" in err and out == ""


def test_verify_all_rejects_options_it_ignores(capsys):
    for argv in (["--spec", "A2"], ["--labels", "1,1"], ["--nu", "1,1"],
                 ["--wprime", "1"], ["--i", "1"],
                 ["--spec", "A2", "--labels", "1,1"]):
        code, out, err = run(capsys, "verify", "all", *argv)
        assert code == 64 and argv[0] in err and out == ""
