"""Reading series back from their JSON records: the inverse of
AnchoredSeries.to_json_dict, which only the goldens and the round-trip
tests need."""
from dlhecke import rootdata
from dlhecke.vseries import AnchoredSeries, SeriesError, VPoly


def vpoly_from_pairs(pairs):
    """The VPoly of sorted (degree, coefficient) pairs (VPoly.pairs)."""
    return VPoly({int(d): int(n) for d, n in pairs})


def series_from_json(data, spec=None):
    """The AnchoredSeries of a to_json_dict record; a record whose exact
    flag disagrees with its depth is refused."""
    if spec is None:
        spec = rootdata.RootSystemSpec.parse(data["spec"])
    if bool(data["exact"]) != (data["depth"] is None):
        raise SeriesError(f"record's exact flag {data['exact']!r} "
                          f"disagrees with its depth {data['depth']!r}")
    terms = {tuple(t["beta"]): vpoly_from_pairs(t["coeff"])
             for t in data["terms"]}
    return AnchoredSeries(spec, tuple(data["anchor_labels"]), terms,
                          depth=data["depth"])
