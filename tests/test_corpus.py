"""The corpus suite reads only the corpus prefix its checks need.

`run_suite` enumerates just the terms its selected checks read.  That is
sound because a shorter enumeration is a prefix of a longer one and
`term_pairs` draws from a fixed prefix; the pinned digests below show
that every check still sees the same terms and random inputs.
"""
import hashlib
import itertools
import json

import pytest

from lbisim import Calculus, print_term
from lbisim import corpus
from lbisim.corpus import (
    DEFAULT_CHECKS, _DEFAULT_NAMES, _pair_prefix, enumerate_terms, run_suite,
    term_pairs,
)

CCS, ACCS, MA = Calculus.CCS, Calculus.ACCS, Calculus.MA

# (s, n): the corpus (depth <= 3, default names) has n canonical terms
# of at most s constructors, so its size-s batch ends at term n
_BATCH_END = {CCS: (5, 222), ACCS: (4, 227), MA: (3, 77)}


@pytest.mark.parametrize("calc", list(Calculus))
def test_shorter_enumeration_is_a_prefix(calc):
    names = _DEFAULT_NAMES[calc]
    full = enumerate_terms(calc, names, count=300)
    assert len(full) == 300
    for n in (0, 1, 21, 30, 299, _BATCH_END[calc][1]):
        assert enumerate_terms(calc, names, count=n) == full[:n], n


def test_batch_end_is_a_size_boundary(monkeypatch):
    for calc, (size, n) in _BATCH_END.items():
        monkeypatch.setattr(corpus, "_MAX_SIZE", size)
        assert len(enumerate_terms(calc, _DEFAULT_NAMES[calc],
                                   count=10 ** 6)) == n


@pytest.mark.parametrize("calc", list(Calculus))
def test_term_pairs_read_only_their_prefix(calc):
    full = enumerate_terms(calc, _DEFAULT_NAMES[calc], count=300)
    for count in (0, 1, 200, 500):
        k = _pair_prefix(count)
        assert term_pairs(full[:k], count) == term_pairs(full, count), count
        assert term_pairs(full[:max(30, k)], count) \
            == term_pairs(full, count), count
    # a corpus shorter than the prefix gives all its pairs
    assert _pair_prefix(200) == 21
    assert term_pairs(full[:10], 200) \
        == list(itertools.combinations(full[:10], 2))


def test_pair_prefix_is_the_least_that_suffices():
    for count in [*range(2000), 10 ** 18]:
        k = _pair_prefix(count)
        assert k >= 2 and k * (k - 1) // 2 >= count, count
        assert k == 2 or (k - 1) * (k - 2) // 2 < count, count


# What each default check of each calculus reads when it runs alone on
# the default spec: the printed random terms and shuffles it draws, and
# the corpus or pairs handed to it.  One SHA-256 per calculus; these
# digests were taken when every suite still enumerated all 300 terms.
_READ_DIGESTS = {
    CCS: "ea6be903a2d38af7d270807465b24538267f102c95c24ea91bdef86427f801ea",
    ACCS: "072235c3795b2b48e9fcc68e963b90fc84191d049b5bb349396a346f5d1d15e3",
    MA: "068927edd2df9113f586228ae6420a12cf8d44eb58990c2f2b436c12fc15d265",
}

_CORPUS_CHECKS = ("lts", "barbs", "pred")


def _printed(value):
    if isinstance(value, (list, tuple)):
        return [_printed(v) for v in value]
    return print_term(value)


def _reads(calc, monkeypatch):
    """Run each default check alone; return the digest of what the
    checks read and the `count` each run asks `enumerate_terms` for."""
    events, asked = [], {}

    def produced(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            events.append([fn.__name__, print_term(out)])
            return out
        return wrapper

    def received(fn, *fields):
        def wrapper(*args, **kwargs):
            events.append([fn.__name__]
                          + [_printed(args[i]) for i in fields])
            return corpus.CheckOutcome(fn.__name__, 0)
        return wrapper

    def enumerate_wrapper(*args, count, **kwargs):
        asked[check] = count
        return enumerate_real(*args, count=count, **kwargs)

    enumerate_real = corpus.enumerate_terms
    monkeypatch.setattr(corpus, "enumerate_terms", enumerate_wrapper)
    for name in ("random_term", "congruent_shuffle"):
        monkeypatch.setattr(corpus, name, produced(getattr(corpus, name)))
    for name, fields in (("check_lts_correspondence", (1,)),
                         ("check_barb_capturing", (0,)),
                         ("check_pred", (1, 2)),
                         ("check_coincidence", (1,)),
                         ("check_endpoints", (1,))):
        monkeypatch.setattr(corpus, name,
                            received(getattr(corpus, name), *fields))
    for check in DEFAULT_CHECKS[calc]:
        events.append(["check", check])
        run_suite({"calculus": calc.value, "seed": 0, "checks": [check]})
    text = json.dumps(events)
    return hashlib.sha256(text.encode()).hexdigest(), asked


@pytest.mark.parametrize("calc", list(Calculus))
def test_each_check_reads_the_same_inputs(calc, monkeypatch):
    digest, asked = _reads(calc, monkeypatch)
    assert digest == _READ_DIGESTS[calc]
    for check, count in asked.items():
        if check in _CORPUS_CHECKS:
            assert count == 300, check
        else:
            assert count <= 30, check
