"""The slow-and-obvious twin of every stage, one package.

Each production kernel is held byte for byte (``==`` on floats, never
``allclose``) to a plain function here that computes the same thing the
way the paper — or the implementation the kernel replaced — states it:

============================  ==============================================
stage                         oracle
============================  ==============================================
Algorithm 2 (adaptation)      :func:`reference_adapt` — one forward and one
                              backward sweep per object; :func:`fresh_twin`
                              — a database rebuilt with no donor anywhere
compiled tables               :func:`reference_tables` — built row by row
§ 5 sampling                  :func:`reference_sample_paths` — the row-dict
                              walk over ``F(t)``
refinement (distances)        :func:`loop_states` → :func:`loop_distance_tensor`
                              / :func:`loop_object_distances` — object by
                              object, one draw and one broadcast each
                              (:func:`checking_distances` holds every
                              call of a block to them);
                              :func:`world_major_distances` — the
                              tile/scatter kernel
refinement (NN indicator)     :func:`partition_indicator`
§ 6 diamonds                  :func:`reference_diamonds` — one forward
                              and one backward walk per segment
§ 6 filter                    :func:`prune_reference` over an
                              :class:`RStarTree` of segment boxes
Algorithm 1 (PCNN mining)     :func:`reference_mine`
monitor tick (world pass)     :func:`per_request_monitor` — each due
                              evaluation draws its own worlds
============================  ==============================================

An oracle is a function a test (or a benchmark baseline) calls — never an
option of the engine.  ``test_differential.py`` runs them against the
default engine over the shared request shapes of :mod:`tests.oracles.shapes`;
add a new stage's oracle next to its siblings, export it here and give it a
row in that matrix.  This package is reference code: it is linted like
``src/``.
"""

from .adaptation import (
    fresh_twin,
    reference_adapt,
    reference_tables,
    same_array,
    same_compiled,
    same_distributions,
    same_model,
    same_tables,
    same_transitions,
)
from .compiled import reference_stretch_tables
from .diamonds import reference_diamonds, reference_segment, same_diamonds
from .mining import reference_mine
from .monitor import per_request_monitor
from .pruning import prune_reference, same_pruning, segment_items, segment_tree
from .refinement import (
    checking_distances,
    loop_distance_tensor,
    loop_object_distances,
    loop_states,
    partition_indicator,
    world_major_distances,
)
from .rstar import RStarTree
from .sampling import reference_sample_paths

__all__ = [
    "RStarTree",
    "checking_distances",
    "fresh_twin",
    "loop_distance_tensor",
    "loop_object_distances",
    "loop_states",
    "partition_indicator",
    "per_request_monitor",
    "prune_reference",
    "reference_adapt",
    "reference_diamonds",
    "reference_segment",
    "reference_stretch_tables",
    "reference_tables",
    "reference_mine",
    "reference_sample_paths",
    "same_array",
    "same_compiled",
    "same_diamonds",
    "same_distributions",
    "same_model",
    "same_tables",
    "same_pruning",
    "same_transitions",
    "segment_items",
    "segment_tree",
    "world_major_distances",
]
