"""Multiresolution cube summaries over 2-D sensor grids.

Builds per-cell SUM summaries at several granularities over a grid of sensor
readings, plans spatially constrained aggregate queries with a provably
minimal number of data points via a min-cut reduction, solved exactly by a
two-pass dynamic program over the cell-containment tree, optimizes several
queries jointly, supports a prefix-sum cube variant, simulates the
distributed construction protocol and recovers exact or estimated answers
after node and area failures.
"""

from .division import CellCover, greedy_divide
from .errors import (BoundsError, ConfigError, GridCubesError, InfeasibleError,
                     RecoveryError, ScenarioError, ValidationError)
from .flow import (CombinedResult, FailureSet, FlowGraph, QueryPlan,
                   build_flow_graph, combined_plan, failed_datapoints,
                   mark_failed, min_cut_plan, plan_query)
from .grid import (CornerClassification, CornerKind, GridDims, GridValues, Rect,
                   RectilinearRegion, classify_corners, corner_counts,
                   region_from_rectangles)
from .hierarchy import (Cell, Color, CubeHierarchy, HierarchyConfig,
                        HierarchyTree, LevelColors, build_hierarchy, cell_of,
                        color_tree, level_colors)
from .prefix import (PrefixSumCube, PSDataPoint, build_ps_cube, corner_weights,
                     ps_query_plan, rectangle_sum, rectilinear_sum)
from .protocol import (NodeState, Packet, SimStats, junction_level, node_slot,
                       node_step, run_construction)
from .recovery import (Reconstruction, RecoveryKind, RecoveryResult,
                       plan_with_failures, recover_junction, recover_node,
                       recover_region)

__all__ = [
    "CellCover", "greedy_divide",
    "BoundsError", "ConfigError", "GridCubesError", "InfeasibleError",
    "RecoveryError", "ScenarioError", "ValidationError",
    "CombinedResult", "FailureSet", "FlowGraph", "QueryPlan",
    "build_flow_graph", "combined_plan", "failed_datapoints", "mark_failed",
    "min_cut_plan", "plan_query",
    "CornerClassification", "CornerKind", "GridDims", "GridValues", "Rect",
    "RectilinearRegion", "classify_corners", "corner_counts",
    "region_from_rectangles",
    "Cell", "Color", "CubeHierarchy", "HierarchyConfig", "HierarchyTree",
    "LevelColors", "build_hierarchy", "cell_of", "color_tree", "level_colors",
    "PrefixSumCube", "PSDataPoint", "build_ps_cube", "corner_weights",
    "ps_query_plan", "rectangle_sum", "rectilinear_sum",
    "NodeState", "Packet", "SimStats", "junction_level", "node_slot",
    "node_step", "run_construction",
    "Reconstruction", "RecoveryKind", "RecoveryResult", "plan_with_failures",
    "recover_junction", "recover_node", "recover_region",
]
