"""Workload construction.

Section 5.3: "We construct a workload consistent of four query types
(each with 10 different query instances) and the queries in the workload
is uniformly distributed among four query types."
"""

from __future__ import annotations

from typing import List, Sequence

from ..sim.rng import derive_rng
from .queries import QUERY_TYPES, QueryInstance, QueryTemplate


def build_workload(
    templates: Sequence[QueryTemplate] = QUERY_TYPES,
    instances_per_type: int = 10,
    seed: int = 7,
    shuffle: bool = True,
) -> List[QueryInstance]:
    """A uniform mix of query instances across the given templates.

    With ``shuffle`` the types are interleaved pseudo-randomly (but
    deterministically for a given seed); otherwise instances round-robin
    through the types: QT1#0, QT2#0, ..., QT1#1, ...
    """
    if instances_per_type < 1:
        raise ValueError("instances_per_type must be >= 1")
    per_type = {
        template.name: template.instances(instances_per_type, seed)
        for template in templates
    }
    workload: List[QueryInstance] = []
    for index in range(instances_per_type):
        for template in templates:
            workload.append(per_type[template.name][index])
    if shuffle:
        rng = derive_rng(seed, "workload-shuffle")
        rng.shuffle(workload)
    return workload
