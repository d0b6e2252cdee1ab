"""Positive control for refute's per-sample analysis: on witness groups,
where counterexamples to the pq statement exist, it must find them."""

import pytest

from permwit.group import PermGroup
from permwit.refute import _analyze_sample
from permwit.witness import construct_witness, verify_candidate


@pytest.mark.parametrize("n, p", [(6, 2), (9, 3), (21, 3)])
def test_analysis_reports_witness_counterexamples(n, p):
    w = construct_witness(n, p)
    outcome = _analyze_sample(list(w.G.generators), n)
    assert outcome.transitive and outcome.small
    assert outcome.pairs >= 1
    assert outcome.counterexamples
    for found in outcome.counterexamples:
        g_group, n1, n2 = (PermGroup.from_cycles(n, *found[key])
                           for key in ("G", "N1", "N2"))
        assert verify_candidate(g_group, n1, n2).passed
