"""Deterministic job-to-worker assignment by fingerprint hashing.

Jobs are assigned to worker endpoints with rendezvous (highest-random-
weight) hashing over the pair ``(job fingerprint, endpoint key)``:

* **Deterministic** — the same fingerprint against the same endpoint set
  always lands on the same endpoint, in any process, with no shared
  state.  Repeated sweeps therefore hit the same server's warm
  :class:`~repro.service.cache.DiskCache` instead of recompiling
  elsewhere.
* **Stable under membership change** — when an endpoint dies, only *its*
  jobs move (each to its second-choice endpoint); jobs on surviving
  endpoints stay put, so a re-dispatch round never invalidates the
  survivors' cache affinity.

The hash is :func:`hashlib.sha256` over ``"<fingerprint>|<endpoint>"``
— no process salt, unlike builtin ``hash()`` — so executor restarts
and independent executors agree on the placement.

Heterogeneous fleets can weight endpoints: pass a ``{key: weight}``
mapping instead of a key sequence and placement follows *weighted*
rendezvous hashing (score ``-weight / ln(u)`` with ``u`` the pair's
hash mapped into ``(0, 1)``), so a worker with weight 2 draws about
twice the jobs of a weight-1 sibling in expectation while keeping
every rendezvous property above.  Uniform weights reduce to exactly
the unweighted placement (the score is a monotonic transform of the
raw hash), so existing cache layouts survive the upgrade.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from repro.exceptions import ClusterError
from repro.api.job import CompileJob

#: Endpoints for sharding: bare keys (uniform weights) or key -> weight.
EndpointKeys = Union[Sequence[str], Mapping[str, float]]


def shard_weight(fingerprint: str, endpoint_key: str) -> int:
    """Rendezvous weight of one (job, endpoint) pair."""
    digest = hashlib.sha256(
        f"{fingerprint}|{endpoint_key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def shard_score(fingerprint: str, endpoint_key: str,
                weight: float = 1.0) -> float:
    """Weighted rendezvous score of one (job, endpoint) pair.

    The raw 64-bit hash maps to a uniform ``u`` in (0, 1) and the score
    is ``-weight / ln(u)`` — the standard weighted-rendezvous transform:
    strictly increasing in the hash (so ``weight=1`` ranks identically
    to :func:`shard_weight`) and winning proportionally to ``weight``
    in expectation.

    Raises:
        ClusterError: ``weight`` is not > 0 (a zero-weight endpoint
            should simply be left out of the key set).
    """
    if not weight > 0:
        raise ClusterError(
            f"endpoint {endpoint_key!r} has non-positive shard weight "
            f"{weight!r}; weights must be > 0")
    u = (shard_weight(fingerprint, endpoint_key) + 0.5) / (1 << 64)
    return -weight / math.log(u)


def _weighted(endpoints: EndpointKeys) -> Dict[str, float]:
    """Normalise an endpoint collection to an ordered key -> weight map."""
    if isinstance(endpoints, Mapping):
        return dict(endpoints)
    return {key: 1.0 for key in endpoints}


def assign_endpoint(fingerprint: str,
                    endpoints: EndpointKeys) -> str:
    """The endpoint a fingerprint lands on: highest rendezvous score.

    Args:
        endpoints: Endpoint keys, or a ``{key: weight}`` mapping for
            heterogeneous fleets (weights must be > 0).

    Ties (astronomically unlikely with a 64-bit hash) break toward the
    lexicographically smallest endpoint key, keeping the choice
    deterministic either way.
    """
    weighted = _weighted(endpoints)
    if not weighted:
        raise ClusterError("cannot assign a job: no worker endpoints")
    return max(sorted(weighted),
               key=lambda key: shard_score(fingerprint, key,
                                           weighted[key]))


def shard_jobs(jobs: Sequence[Tuple[str, CompileJob]],
               endpoints: EndpointKeys
               ) -> "OrderedDict[str, List[Tuple[str, CompileJob]]]":
    """Partition ``(fingerprint, job)`` pairs across endpoints.

    Returns an ordered mapping of endpoint key to its shard, with
    endpoints in the order given and each shard preserving the input
    job order — the deterministic layout a shard's entry stream is
    matched against.  Endpoints drawing no jobs are omitted.  A ``{key:
    weight}`` mapping shards proportionally to capacity (see
    :func:`shard_score`).
    """
    weighted = _weighted(endpoints)
    shards: "OrderedDict[str, List[Tuple[str, CompileJob]]]" = OrderedDict()
    for key in weighted:
        shards[key] = []
    for fingerprint, job in jobs:
        shards[assign_endpoint(fingerprint, weighted)].append(
            (fingerprint, job))
    for key in [key for key, shard in shards.items() if not shard]:
        del shards[key]
    return shards


def shard_counts(shards: Dict[str, List]) -> Dict[str, int]:
    """Shard sizes keyed by endpoint — telemetry/log helper."""
    return {key: len(shard) for key, shard in shards.items()}
