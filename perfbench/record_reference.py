"""Record perfbench/reference.json: the canonical output digest of every
benchmark case, computed on the canonical labelling.

    python3 perfbench/record_reference.py

Run it from the root of a checkout only when the library's outputs are
meant to change; the benchmark counts any other difference as a failure.
"""
from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

EXPECTED_VERIFY_ALL = {"exit_code": 1, "pass": 9, "fail": 4}


def main():
    reference = {}
    for workload in workloads.WORKLOADS:
        digests = {}
        for case in workloads.build_cases(workload, 0, identity=True):
            out = case.run()
            if case.check is not None and not case.check(out):
                raise SystemExit(f"{case.name}: correctness check failed")
            if workload == "verify-all":
                canon = workloads.cli_canonical(out)
                verdicts = Counter(r["verdict"] for r in canon["reports"])
                seen = {"exit_code": canon["exit_code"],
                        "pass": verdicts["pass"], "fail": verdicts["fail"]}
                if seen != EXPECTED_VERIFY_ALL:
                    raise SystemExit(f"verify all gave {seen}")
            digests[case.name] = case.digest(out)
            print(workload, case.name, digests[case.name][:16])
        reference[workload] = digests
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
