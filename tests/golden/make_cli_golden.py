"""Regenerate cli_outputs.json, a regression pin of the CLI's JSON output.

Unlike the other goldens here, this file comes from no independent
oracle: it records what `dlhecke --format json` printed for a fixed set of
commands, with each report's wall time ("ms") removed, so that a change
meant to keep every output the same can be checked term for term.  Each
entry holds the command, its exit code and its parsed payload.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/make_cli_golden.py
"""
import contextlib
import io
import json
import pathlib

from dlhecke import cli

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "cli_outputs.json"

COMMANDS = [
    "verify all",
    "verify finite-cs --spec D4 --labels 1,1,1,1",
    "verify finite-cs --spec A1 --labels 0",
    "verify finite-cs --spec A5 --labels 1,0,1,0,1",
    "whittaker --spec A2! --labels 0,0,1 --margin 1",
    "whittaker --spec A3! --labels 0,0,0,1 --depth 3 --margin 3",
    "verify symmetrizer --spec A2! --labels 0,0,1 --depth 4",
    "verify recursion --spec A2 --labels 1,1 --wprime 2 --i 1",
    "verify affine-cs --spec A1! --labels 0,1 --depth 4",
    "verify gk-limit --spec A2 --nu 1,1 --depth 3",
    "verify hecke-relations --spec A2 --count 5",
    "verify denominator-identity --spec A2! --depth 4",
    "verify proportionality --spec A2 --labels 1,1 --depth 4",
    "verify proportionality --spec A1! --labels 0,1 --depth 4",
    "verify gk-limit --spec D4 --nu 1,0,0,0 --depth 1",
    "verify proportionality --spec D4 --labels 2,2,2,2 --depth 3",
    "verify symmetrizer --spec A3 --labels 1,0,1 --depth 6",
]


def run_command(command):
    """{"command", "exit", "payload"} of one CLI run, the "ms" of each
    report dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["--format", "json"] + command.split())
    payload = json.loads(out.getvalue())
    for report in payload.get("reports", ()):
        report.pop("ms")
    return {"command": command, "exit": code, "payload": payload}


def main():
    records = [run_command(command) for command in COMMANDS]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print("wrote", GOLDEN.name)


if __name__ == "__main__":
    main()
