"""CLI surface tests: argument handling, exit codes, and JSON output."""
import contextlib
import importlib.util
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
from random import Random

import pytest
from hypothesis import example, find, given, settings, strategies as st

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


@pytest.mark.parametrize("argv", [("-h",), ("verify", "--help"),
                                  ("verify", "finite-cs", "-h")])
def test_help_returns_zero_with_the_usage_on_stdout(capsys, argv):
    # argparse's exit after --help comes back from run as a return code
    code, out, err = run(capsys, *argv)
    assert code == 0 and out.startswith("usage: dlhecke") and err == ""


def test_label_errors_of_finite_cs_and_whittaker(capsys):
    # the finite CS check and the Whittaker sum share one label check
    for command in (["verify", "finite-cs"], ["whittaker"]):
        code, out, err = run(capsys, *command, "--spec", "A2",
                             "--labels", "1,-1")
        assert code == 3 and out == ""
        assert err == "error: dominant labels required\n"
        code, out, _ = run(capsys, *command, "--spec", "A2",
                           "--labels", "1,0,0")
        assert (code, out) == (64, "")


def test_malformed_vectors_are_usage_errors(capsys):
    for argv in (["--nu", "a,b"], ["--nu", "1,1,1"]):
        code, _, err = run(capsys, "verify", "gk-limit", "--spec", "A1!",
                           *argv)
        assert code == 64 and "usage error" in err
    code, _, err = run(capsys, "verify", "recursion", "--spec", "A2",
                       "--labels", "1,1", "--wprime", "x", "--i", "1")
    assert code == 64 and "usage error" in err


def test_library_errors_have_their_own_exit_code(capsys):
    # the first length layer of the affine A2 Weyl group has 3 elements
    code, _, err = run(capsys, "--layer-cap", "2", "whittaker", "--spec",
                       "A2!", "--labels", "0,0,1", "--depth", "2")
    assert code == cli.EXIT_ERROR == 3 and "exceeds cap" in err
    code, _, err = run(capsys, "verify", "recursion", "--spec", "A2",
                       "--labels", "1,1", "--wprime", "1,1", "--i", "2")
    assert code == 3 and "not reduced" in err


def test_removed_q_option_is_usage_error(capsys):
    # equal coefficients in Z[v, v^-1] agree at every v = q, so affine-cs
    # takes no spot value
    for value in ("2", "zebra"):
        code, out, err = run(capsys, "verify", "affine-cs", "--spec", "A1!",
                             "--labels", "0,1", "--depth", "2", "--q", value)
        assert code == 64 and "--q" in err and out == ""


def test_finite_whittaker_refuses_depth_and_margin(capsys):
    for argv, message in ((["--depth", "3"], "takes no depth or margin"),
                          (["--margin", "1"], "takes no depth or margin"),
                          # argparse refuses a margin below 1 first
                          (["--margin", "-1", "--depth", "-2"],
                           "argument --margin: must be >= 1, got -1")):
        code, out, err = run(capsys, "whittaker", "--spec", "A2", "--labels",
                             "1,1", *argv)
        assert code == 64 and message in err and out == ""


@pytest.mark.parametrize("spec, labels", [("A2", "1,1"), ("A2!", "0,0,1")])
@pytest.mark.parametrize("what", ["affine-cs", "symmetrizer", "gk-limit",
                                  "proportionality"])
def test_a_margin_below_1_is_usage_error_on_every_spec(capsys, what, spec,
                                                       labels):
    given = {"--labels": labels, "--nu": labels, "--depth": "3"}
    argv = [x for name in CHECK_OPTIONS[what] if name in given
            for x in (name, given[name])]
    for margin in ("0", "-1"):
        code, out, err = run(capsys, "verify", what, "--spec", spec, *argv,
                             "--margin", margin)
        assert code == 64 and f"must be >= 1, got {margin}" in err
        assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["finite-cs", "--spec", "A1!", "--labels", "0,1"],
     "finite-cs runs on finite specs only; A1! is affine"),
    (["affine-cs", "--spec", "A2", "--labels", "1,0", "--depth", "4"],
     "affine-cs runs on affine specs only; A2 is finite"),
])
def test_cs_check_on_a_spec_of_the_other_kind_is_usage_error(capsys, argv,
                                                             message):
    code, out, err = run(capsys, "verify", *argv)
    assert code == cli.EXIT_USAGE and message in err and out == ""


def test_affine_whittaker_defaults_to_depth_6_margin_2(capsys):
    base = ["--format", "json", "whittaker", "--spec", "A1!", "--labels",
            "0,1"]
    code, default, _ = run(capsys, *base)
    assert code == 0 and json.loads(default)["series"]["depth"] == 6
    code, explicit, _ = run(capsys, *base, "--depth", "6", "--margin", "2")
    assert code == 0 and explicit == default


@pytest.mark.parametrize("argv", [
    ["affine-cs", "--spec", "A1!", "--labels", "0,1", "--depth", "0"],
    ["proportionality", "--spec", "A1!", "--labels", "0,1", "--depth", "0"],
    ["proportionality", "--spec", "A2", "--labels", "1,1", "--depth", "0"],
    ["denominator-identity", "--spec", "A1!", "--depth", "0"],
    ["symmetrizer", "--spec", "A1!", "--labels", "0,1", "--depth", "3",
     "--buffer", "3"],
])
def test_check_of_the_beta_zero_coefficient_alone_is_refused(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == cli.EXIT_ERROR and "beta = 0" in err and out == ""


def test_gk_limit_at_nu_zero_is_refused(capsys):
    code, out, err = run(capsys, "verify", "gk-limit", "--spec", "A1!",
                         "--nu", "0,0", "--depth", "6")
    assert code == cli.EXIT_ERROR and "beta = 0" in err and out == ""


@pytest.mark.parametrize("argv", [
    ["--spec", "A1", "--nu", "-2", "--depth", "3"],
    ["--spec", "A2", "--nu", "1,-1"],
    ["--spec", "A1!", "--nu", "2,-1", "--depth", "4"],
])
def test_gk_limit_at_a_negative_nu_is_refused(capsys, argv):
    code, out, err = run(capsys, "--format", "json", "verify", "gk-limit",
                         *argv)
    assert code == cli.EXIT_ERROR and "nonnegative" in err and out == ""


@pytest.mark.parametrize("argv, message", [
    (["whittaker", "--spec", "A1!", "--labels", "0,1", "--depth", "-1"],
     "depth must be >= 0"),
    (["verify", "symmetrizer", "--spec", "A1!", "--labels", "0,1",
      "--depth", "5", "--buffer", "-1"], "buffer must be >= 0"),
])
def test_negative_depth_or_buffer_is_refused(capsys, argv, message):
    code, out, err = run(capsys, "--format", "json", *argv)
    assert code == cli.EXIT_ERROR and message in err and out == ""


def _readme_commands():
    """Every `dlhecke ...` line of the README's shell blocks but
    `verify all`, as an argv."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S)
    lines = [line.strip() for block in blocks for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("dlhecke ") and line != "dlhecke verify all"]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_commands_run(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code in (cli.EXIT_OK, cli.EXIT_FAIL), err
    assert out


def _cli_golden():
    """tests/golden/make_cli_golden.py, loaded as a module."""
    path = pathlib.Path(__file__).resolve().parent / "golden" / \
        "make_cli_golden.py"
    spec = importlib.util.spec_from_file_location("make_cli_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CLI_GOLDEN = _cli_golden()


@pytest.mark.parametrize(
    "record", json.loads(CLI_GOLDEN.GOLDEN.read_text()),
    ids=lambda record: record["command"])
def test_cli_output_matches_the_golden(record):
    """A regression pin: exit code and JSON payload, each report's ms
    dropped, as recorded by tests/golden/make_cli_golden.py."""
    assert CLI_GOLDEN.run_command(record["command"]) == record


def test_cli_golden_records_every_command():
    records = json.loads(CLI_GOLDEN.GOLDEN.read_text())
    assert [r["command"] for r in records] == CLI_GOLDEN.COMMANDS


def test_hecke_relations_count_below_one_is_usage_error(capsys):
    for count in ("0", "-5"):
        code, out, err = run(capsys, "verify", "hecke-relations", "--spec",
                             "A2", "--count", count)
        assert code == 64 and "--count" in err and out == ""


def test_double_dash_values_are_usage_errors(capsys):
    # argparse reads "--opt=--" as an empty list, not a string
    for argv in (["--layer-cap=--", "roots", "--spec", "A1"],
                 ["roots", "--spec", "A1", "--depth=--"],
                 ["character", "--spec", "A1", "--labels=--"],
                 ["verify", "affine-cs", "--spec", "A1!", "--labels", "0,1",
                  "--margin=--"]):
        code, out, err = run(capsys, *argv)
        assert code == 64 and "needs a value" in err and out == ""


def test_layer_cap_below_one_is_usage_error(capsys):
    for cap in ("0", "-5"):
        code, out, err = run(capsys, "--layer-cap", cap, "whittaker",
                             "--spec", "A1", "--labels", "2")
        assert code == 64 and "--layer-cap" in err and out == ""


def test_finite_layer_cap_bounds_a_coset_layer(capsys):
    # the chain holds one coset layer at a time, at most 1 element on A3,
    # though W's largest length layer has 5
    code, out, _ = run(capsys, "--format", "json", "--layer-cap", "2",
                       "whittaker", "--spec", "A3", "--labels", "1,1,1")
    assert code == 0 and json.loads(out)["achieved_L"] == 6


# the options each verify check reads; `all` runs a fixed battery and
# reads none
CHECK_OPTIONS = {
    "finite-cs": ("--spec", "--labels"),
    "affine-cs": ("--spec", "--labels", "--depth", "--margin"),
    "recursion": ("--spec", "--labels", "--wprime", "--i"),
    "symmetrizer": ("--spec", "--labels", "--depth", "--buffer", "--margin"),
    "gk-limit": ("--spec", "--nu", "--depth", "--margin"),
    "hecke-relations": ("--spec", "--count"),
    "denominator-identity": ("--spec", "--depth"),
    "proportionality": ("--spec", "--labels", "--depth", "--margin"),
    "all": (),
}
# a well-formed value of every verify option, on A2
WELL_FORMED = {"--spec": "A2", "--labels": "1,1", "--depth": "3",
               "--margin": "2", "--buffer": "3", "--nu": "1,1",
               "--wprime": "2", "--i": "1", "--count": "5"}


@pytest.mark.parametrize("what, option", [
    pytest.param(what, option, id=f"{what} {option}")
    for what, reads in CHECK_OPTIONS.items()
    for option in WELL_FORMED if option not in reads])
def test_verify_check_rejects_options_it_does_not_read(capsys, what, option):
    given = [x for name in CHECK_OPTIONS[what]
             for x in (name, WELL_FORMED[name])]
    code, out, err = run(capsys, "verify", what, *given, option,
                         WELL_FORMED[option])
    assert code == 64 and option in err and out == ""


# -- fuzzing the argument grammar ------------------------------------------

# the options each command but verify reads
COMMAND_OPTIONS = {
    "roots": ("--spec", "--depth"),
    "exponents": ("--spec",),
    "weyl": ("--spec", "--max-length"),
    "character": ("--spec", "--labels", "--depth"),
    "whittaker": ("--spec", "--labels", "--depth", "--margin"),
}
SPECS = {"A1": 1, "A2": 2, "A3": 3, "D4": 4, "A1!": 2, "A2!": 3}
BAD_SPECS = ["A0", "D2", "E5", "E9", "A-1", "B2", "A", "a2", "A2!!", "",
             " ", "A1 !", "D!"]
LARGE = st.sampled_from([10 ** 9, -10 ** 9, 2 ** 64])
SMALL = st.integers(-2, 3)
JUNK = st.text(alphabet="x,;-! ", max_size=4)


def _mostly(good, *bad):
    """good, drawn six times as often as each of the bad strategies."""
    return st.sampled_from([good] * 6 + list(bad)).flatmap(lambda x: x)


def _joined(ints):
    return ints.map(lambda xs: ",".join(map(str, xs)))


def _vector(entries, n):
    """Comma-separated ints, mostly n of them, sometimes junk."""
    return _mostly(_joined(st.lists(entries, min_size=n, max_size=n)),
                   _joined(st.lists(entries, max_size=5)), JUNK)


@st.composite
def argvs(draw):
    """argv drawn from the parser's grammar, with bad values mixed in.

    Each command or check draws from the options it reads (COMMAND_OPTIONS,
    CHECK_OPTIONS), any of which may be left out; now and then a stray
    token follows, which a check that does not read it refuses.

    Every well-formed request is kept cheap: depths stay <= 3 and labels
    <= 2 (<= 1 on D4).  --layer-cap, when drawn, is small; it is left out
    on some draws, since a finite check at a depth caps a length layer of
    W and D4's largest holds 9 elements.  The symmetrizer window (depth -
    buffer) reaches 1 on A1, A2, A3 and A1!, where a verdict costs at most
    0.04 s, and stays <= 0 on A2! and D4, where it would cost about 1 s;
    a window <= 0 is refused with exit 3 before any walk, as affine-cs,
    proportionality and denominator-identity refuse depth 0: each would
    compare the beta = 0 coefficient alone.  A symmetrizer draw always
    gives its required --spec and --labels, and is mostly well formed
    besides (labels >= 0, a margin >= 1, the window 1 where it may be,
    and a buffer >= 0), so that some reach a verdict; the other checks'
    draws leave required options out."""
    argv = []
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "json"]))]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(SMALL | LARGE))]
    if draw(st.booleans()):
        argv += ["--layer-cap",
                 str(draw(_mostly(st.integers(1, 6), st.integers(-1, 0))))]
    command = draw(st.sampled_from(["roots", "exponents", "weyl",
                                    "character", "whittaker", "verify"]))
    what = draw(st.sampled_from([
        "finite-cs", "affine-cs", "recursion", "symmetrizer", "gk-limit",
        "hecke-relations", "denominator-identity", "proportionality",
        "all"])) if command == "verify" else None
    specs = list(SPECS)
    if command in ("roots", "exponents"):
        specs += ["E6", "E6!"]
    spec = draw(_mostly(st.sampled_from(specs), st.sampled_from(BAD_SPECS)))
    n = SPECS.get(spec, 2)
    labels = _vector(st.integers(-1, 1 if spec == "D4" else 2), n)
    values = {"--spec": st.just(spec), "--labels": labels,
              "--depth": st.integers(-2, 3), "--margin": st.integers(-1, 3),
              "--max-length": st.integers(-2, 8),
              "--wprime": _vector(SMALL | LARGE, 2),
              "--i": SMALL | LARGE, "--nu": _vector(SMALL | LARGE, n),
              "--count": SMALL}
    reads = CHECK_OPTIONS[what] if what else COMMAND_OPTIONS[command]
    argv += [command] + ([what] if what else [])
    symmetrizer = what == "symmetrizer"
    if symmetrizer:
        values["--labels"] = _vector(_mostly(st.integers(0, 2),
                                             st.just(-1)), n)
        values["--margin"] = _mostly(st.integers(1, 3), st.integers(-1, 0))
    for name in reads:
        if symmetrizer and name in ("--depth", "--buffer"):
            continue  # drawn together below
        if (not (symmetrizer and name in ("--spec", "--labels"))
                and draw(_mostly(st.just(False), st.just(True)))):
            continue  # leave a (maybe required) option out
        value = str(draw(values[name]))
        if draw(st.booleans()):
            argv.append(f"{name}={value}")
        else:
            argv += [name, value]  # "-1,2" then reads as an option
    if symmetrizer:
        window = (st.integers(-1, 0) if spec in ("A2!", "D4")
                  else _mostly(st.just(1), st.integers(-1, 0)))
        w = draw(window)
        d = draw(_mostly(st.integers(max(w, 1), 3), values["--depth"]))
        argv += ["--depth", str(d), "--buffer", str(d - w)]
    if draw(_mostly(st.just(False), st.just(True))):
        argv.append(draw(st.sampled_from(["--bogus", "x", "--depth", "7"])))
    return argv


# D4 checks at a depth that argvs can draw, which reach a verdict once no
# --layer-cap below D4's largest length layer is given
D4_VERDICTS = [
    ["verify", "gk-limit", "--spec", "D4", "--nu", "1,0,0,0", "--depth", "1"],
    ["verify", "proportionality", "--spec", "D4", "--labels", "1,1,1,1",
     "--depth", "3"]]


# symmetrizer checks at window 1, on specs where argvs draws that window
# (at depth 4, one more than it draws)
SYMMETRIZER_VERDICTS = [
    ["verify", "symmetrizer", "--spec", "A1!", "--labels", "0,1", "--depth",
     "4", "--buffer", "3"],
    ["verify", "symmetrizer", "--spec", "A2", "--labels", "1,1", "--depth",
     "4", "--buffer", "3"]]


@settings(max_examples=150, deadline=None)
@given(argvs())
@example(D4_VERDICTS[0])
@example(D4_VERDICTS[1])
@example(SYMMETRIZER_VERDICTS[0])
@example(SYMMETRIZER_VERDICTS[1])
def test_any_argv_exits_with_a_documented_code(argv):
    assert _exit_code(argv) in (0, 1, 2, 3, 64)


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.run(argv)


def test_argvs_draws_symmetrizer_requests_that_reach_a_verdict():
    # a search over argvs' own draws finds a symmetrizer request that the
    # check answers, pass (0) or fail (1), not one it refuses
    argv = find(argvs(), lambda argv: "symmetrizer" in argv
                and _exit_code(argv) in (0, 1),
                settings=settings(database=None, max_examples=2000),
                random=Random(0))
    assert argv[argv.index("verify") + 1] == "symmetrizer"


@pytest.mark.parametrize("argv", D4_VERDICTS, ids=shlex.join)
def test_fuzzed_d4_checks_reach_a_verdict(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "verdict: pass" in out


@pytest.mark.parametrize("argv", SYMMETRIZER_VERDICTS, ids=shlex.join)
def test_fuzzed_symmetrizer_checks_reach_a_verdict(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "verdict: pass" in out


@pytest.mark.parametrize("argv", [
    ["--format", "json", "verify", "all"],
    ["whittaker", "--spec", "A3!", "--labels", "0,0,0,1", "--depth", "6"]])
def test_a_closed_standard_output_ends_the_run_with_141_and_no_traceback(
        argv):
    """The reader of standard output has gone before anything is written
    (as `dlhecke ... | head -c 1` leaves it once head has its byte): the
    console entry point exits 141 (128 + SIGPIPE), not 1, which would
    read as a failed check, and writes nothing to standard error."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "dlhecke.cli", *argv],
                              stdout=write, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (cli.EXIT_PIPE, b"")
