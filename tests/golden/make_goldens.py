"""Regenerate the golden files in this directory.

The character golden is produced by an oracle that avoids the library's
factor-by-factor division (vseries.times_factors): the Weyl-Kac numerator is
divided by the plain denominator D via coefficient-recursion division
(verify.series_divide), so the test that compares weyl_kac_character
against this file cross-checks the two division strategies.

The Whittaker goldens freeze the stabilized symmetrizer output (margin 2)
as regression pins, written from the library's walker
(verify.whittaker_normalized): the affine A1 anchor with labels (0, 1) at
depth 4, and the walks A3! (0, 0, 0, 1) at depth 6 and D4! (0, 0, 0, 0, 1)
at depth 4, whose records also carry the stabilized flag.  They are not
from an independent oracle: tests/test_heckeops.py checks the A1 one
against the same sum with every layer's values built exactly
(_stabilized_by_exact_layers), a route that shares the T_i kernel but not
the walker or its settle path, and the other two pin the walker's output
as it was before it pruned its values by the rho-shifted hull.

Run from the repository root:  python3 tests/golden/make_goldens.py
"""
import json
import pathlib

from dlhecke import characters, verify
from dlhecke.rootdata import RootSystemSpec

HERE = pathlib.Path(__file__).resolve().parent
# (spec, labels, depth, whether the record carries the stabilized flag)
WHITTAKER_GOLDENS = (("A1!", (0, 1), 4, False),
                     ("A3!", (0, 0, 0, 1), 6, True),
                     ("D4!", (0, 0, 0, 0, 1), 4, True))


def whittaker_golden_name(text, labels, depth):
    spec = text.replace("!", "aff")
    return f"whittaker_{spec}_{'_'.join(map(str, labels))}_depth{depth}.json"


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

    for text, labels, depth, flagged in WHITTAKER_GOLDENS:
        w, achieved, stabilized = verify.whittaker_normalized(
            RootSystemSpec.parse(text), labels, depth=depth)
        assert stabilized, "whittaker sum did not stabilize"
        payload = w.to_json_dict()
        payload["achieved_L"] = achieved
        if flagged:
            payload["stabilized"] = stabilized
        path = HERE / whittaker_golden_name(text, labels, depth)
        path.write_text(json.dumps(payload, indent=1) + "\n")
        print("wrote", path.name)


if __name__ == "__main__":
    main()
