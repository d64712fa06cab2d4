"""The W-action on a finite series, one simple reflection of every term
per letter: the tests' oracle for the reflected series that the checks
build from weyl.reflect_terms."""
from dlhecke import rootdata, weyl
from dlhecke.vseries import AnchoredSeries, SeriesError


def act_on_series(spec, word, s):
    """Apply a word to a finite series, letter by letter from the right.

    Only exact (finite-support) series are accepted; the images may leave
    the anchor cone, which exact series are allowed to do.
    """
    if not s.exact:
        raise SeriesError("W-action is only exact on finite series")
    cartan = rootdata.build_cartan(spec)
    terms = dict(s.terms)
    for i in reversed(word):
        terms = weyl.reflect_terms(cartan, s.anchor, terms, i)
    return AnchoredSeries(s.spec, s.anchor, terms, _trusted=True)
