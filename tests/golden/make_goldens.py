"""Regenerate the golden files in this directory.

The character golden is produced by an oracle that avoids the library's
factor-by-factor division (vseries.times_factors): the Weyl-Kac numerator is
divided by the plain denominator D via coefficient-recursion division
(verify.series_divide), so the test that compares weyl_kac_character
against this file cross-checks the two division strategies.

The Whittaker golden freezes the stabilized symmetrizer output for the
affine A1 anchor with labels (0, 1) at depth 4 (margin 2) as a regression
pin, written from the library's walker (verify.whittaker_normalized).  It
is not from an independent oracle: tests/test_heckeops.py checks it
against the same sum with every layer's values built exactly
(_stabilized_by_exact_layers), a route that shares the T_i kernel but not
the walker or its settle path.

Run from the repository root:  python3 tests/golden/make_goldens.py
"""
import json
import pathlib

from dlhecke import characters, verify
from dlhecke.rootdata import RootSystemSpec

HERE = pathlib.Path(__file__).resolve().parent


def character_oracle(spec, labels, depth):
    num = characters.character_numerator(spec, labels, depth)
    den = characters.denominator(spec, depth, deformed=False)
    return verify.series_divide(num, den, depth)


def main():
    spec = RootSystemSpec.parse("A1!")
    for depth in (2, 4, 6, 8):
        chi = character_oracle(spec, (0, 1), depth)
        path = HERE / f"character_A1aff_0_1_depth{depth}.json"
        path.write_text(json.dumps(chi.to_json_dict(), indent=1) + "\n")
        print("wrote", path.name)

    w, achieved, stabilized = verify.whittaker_normalized(
        spec, (0, 1), depth=4)
    assert stabilized, "whittaker sum did not stabilize"
    payload = w.to_json_dict()
    payload["achieved_L"] = achieved
    path = HERE / "whittaker_A1aff_0_1_depth4.json"
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print("wrote", path.name)


if __name__ == "__main__":
    main()
