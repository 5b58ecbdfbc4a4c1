"""Determinism of the cycle kernel on bursty sources.

The burst state machine consumes ``binding.rng`` in interval order; the
kernel's per-horizon rate sweep must walk it exactly as the retired
scalar per-interval loop did, and reruns must be bit-stable. The scalar
kernel's digest of the seed-5 run is the ``kernel-bursty-seed5`` entry
of ``tests/fixtures/golden_digests.json``, recorded while both kernels
still existed and gave the same bytes.
"""

import hashlib
import json

from repro.bench.runner import make_scheduler
from repro.spe.engine import Engine
from tests.helpers import make_simple_query
from tests.test_golden_digests import _golden


def _bursty_fingerprint(seed: int) -> str:
    queries = [
        make_simple_query("bursty-q0", rate_eps=5_000.0, burst_factor=3.0, seed=seed)
    ]
    engine = Engine(
        queries, make_scheduler("Default"), cores=2, cycle_ms=100.0, seed=seed
    )
    metrics = engine.run(10_000.0)
    return json.dumps(metrics.summary(), sort_keys=True)


class TestBurstStateDeterminism:
    def test_same_seed_is_byte_stable(self):
        assert _bursty_fingerprint(5) == _bursty_fingerprint(5)

    def test_scalar_and_vectorized_agree(self):
        # The scalar side is the digest the scalar kernel produced.
        scalar = _golden()["kernel-bursty-seed5"]["summary"]
        vectorized = hashlib.sha256(_bursty_fingerprint(5).encode()).hexdigest()
        assert vectorized == scalar
