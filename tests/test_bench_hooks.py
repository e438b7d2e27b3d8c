"""The benchmark's tracer wraps qfdef functions by module attribute.

`perfbench/tracer.py` patches names such as `qfdef.merging.iso_type` and
`qfdef.splitting.generate_terms` where the deciders look them up.  A
rename or an inlined call would silently empty a per-layer metric, so
one decision per strategy must still open every span below.
"""

import sys
from pathlib import Path

import qfdef.merging
import qfdef.splitting
from qfdef import Relation, diamond_lattice, merging_decide, splitting_decide

from conftest import DIAMOND_LEQ

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracer import Tracer, trace_deciders  # noqa: E402

EXPECTED_SPANS = {
    "isotype.iso_type",
    "merging.store_build",
    "merging.try_merge",
    "splitting.block_step",
    "splitting.term_gen",
    "preprocess.decompose",
}


def test_tracer_sees_every_layer():
    alg, rel = diamond_lattice(), Relation(2, DIAMOND_LEQ)
    originals = (qfdef.merging.iso_type, qfdef.splitting.generate_terms)
    tr = Tracer()
    with trace_deciders(tr):
        assert merging_decide(alg, rel).is_definable
        assert splitting_decide(alg, rel).is_definable
    assert EXPECTED_SPANS <= {rec[0] for rec in tr.spans}
    assert (qfdef.merging.iso_type, qfdef.splitting.generate_terms) == originals
