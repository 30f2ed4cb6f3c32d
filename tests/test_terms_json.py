"""``QYSeries.terms_json`` and the documents ``series`` and ``character``
print from it are byte for byte the text of the per-term float path:
each term as [n, r2, re, im] with its part the double c * num / den,
through ``json.dumps`` with one term per line."""

import json

import numpy as np
import pytest

from superchar import characters as ch
from superchar.cli import _series_registry, _series_text
from superchar.series_core import Prefactor, QYSeries

#: phi_{0,1} first passes 2^53 at q^45, phi_{-2,1} at q^58
Q_ORDERS = (0, 1, 20, 44, 45, 57, 58, 98, 100)
EDGE = 2 ** 53


def dumped_terms(s):
    """The oracle: the terms as lists of floats through ``json.dumps``."""
    i, j = np.nonzero(s.rows)
    num, den = s.scale.ratio()
    parts = [c * num / den for c in s.rows[i, j].tolist()]
    ns, r2s = (s.n0 + i).tolist(), (s.r0 + 2 * j).tolist()
    terms = ([[n, r2, 0.0, x] for n, r2, x in zip(ns, r2s, parts)]
             if s.scale.a else
             [[n, r2, x, 0.0] for n, r2, x in zip(ns, r2s, parts)])
    return json.dumps(terms).replace("], [", "],\n[")


def dumped_document(head, key, s):
    """The oracle for ``_series_text``: the whole document through
    ``json.dumps``."""
    terms = json.loads(dumped_terms(s))
    doc = {**head, key: {"q_order": s.q_order,
                         "half_integral": s.half_integral, "terms": terms}}
    return json.dumps(doc).replace("], [", "],\n[")


@pytest.mark.parametrize("n_q", Q_ORDERS)
@pytest.mark.parametrize("name", sorted(_series_registry(0)))
def test_every_series_prints_as_the_float_path(name, n_q):
    s = _series_registry(n_q)[name]()
    head = {"q_offset": str(s.q_offset)}
    assert _series_text(head, "series", s) == \
        dumped_document(head, "series", s)


@pytest.mark.parametrize("make, below, past", [
    (lambda n_q: _series_registry(n_q)["phi_0_1"](), 44, 45),
    (lambda n_q: _series_registry(n_q)["phi_m2_1"](), 57, 58),
    (lambda n_q: ch.chi_character(ch.e8_lattice(), n_q, "product").chi,
     21, 22),
])
def test_the_orders_reach_past_2p53(make, below, past):
    tops = []
    for n_q in (below, past):
        s = make(n_q)
        assert (s.scale.den, s.scale.b) == (1, 0)
        top = max(map(abs, s.rows.ravel().tolist()))
        tops.append(top * abs(s.scale.num))
    assert tops[0] <= EDGE < tops[1]


@pytest.mark.parametrize("n_q", [21, 22, 100])
@pytest.mark.parametrize("mode", ["product", "closed"])
def test_e8_character_prints_as_the_float_path(mode, n_q):
    cs = ch.chi_character(ch.e8_lattice(), n_q, mode)
    head = {"rank": 8, "central_charge": str(cs.central_charge),
            "index": str(cs.index), "mode": mode}
    assert _series_text(head, "chi", cs.chi) == \
        dumped_document(head, "chi", cs.chi)


@pytest.mark.parametrize("scale", [1, 3, -3, Prefactor(1, 1)])
def test_block_at_and_past_2p53(scale):
    s = QYSeries({(0, 0): EDGE, (0, 2): -EDGE,
                  (1, 0): EDGE + 1, (1, 2): -EDGE - 1}, 4) * scale
    assert s.terms_json() == dumped_terms(s)
    if scale == 1:
        assert s.terms_json() == ("[[0, 0, 9007199254740992.0, 0.0],\n"
                                  "[0, 2, -9007199254740992.0, 0.0],\n"
                                  "[1, 0, 9007199254740992.0, 0.0],\n"
                                  "[1, 2, -9007199254740992.0, 0.0]]")


def test_content_times_block_past_2p53():
    # the block is [1, 2^52 + 1] with content 3: only the product passes
    s = QYSeries({(0, 0): 3, (1, 0): 3 * (2 ** 52 + 1)}, 4)
    assert s.scale.num == 3
    assert s.terms_json() == dumped_terms(s)
    assert json.loads(s.terms_json())[1][2] == float(3 * (2 ** 52 + 1))


@pytest.mark.parametrize("make", [
    lambda: _series_registry(40)["phi_m1_half"](),  # i (2 pi)^-1
    lambda: _series_registry(20)["zeta_tilde"](),   # a Fraction scale
    lambda: _series_registry(30)["theta"](),        # half-integral
    lambda: QYSeries.monomial(-7, 2, 3, 5),         # one term
])
def test_prefactors_and_shapes(make):
    s = make()
    assert s.terms_json() == dumped_terms(s)


def test_empty_series_prints_an_empty_list():
    s = _series_registry(0)["discriminant"]()
    assert s.terms_json() == dumped_terms(s) == "[]"
