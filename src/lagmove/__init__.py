"""Movement schemes for Lagrangian meshfree point clouds.

Four integrators for advecting a point cloud through a velocity field
(first order, second order, streamline, change of streamlines), a WLSQ
velocity-gradient reconstruction, a KD-tree neighbor search, and
conservation/trajectory diagnostics.
"""
from .cloud import LevelSeries, PointCloud, advance_history, make_cloud
from .diagnostics import DiagnosticsRecord, centroid, eps_volume, measure
from .fields import (
    LinearField,
    Lissajous,
    ModulatedRotation,
    RigidRotation,
    exact_lissajous_center,
)
from .gfdm import all_gradients, wlsq_gradient
from .movers import (
    MoverKind,
    displacement,
    exp_series_apply,
    move_m1,
    move_m2,
    move_m3,
    move_m4,
)
from .neighbors import NeighborIndex, build_index
from .scenarios import (
    RunConfig,
    Scenario,
    convergence_sweep,
    initial_cloud,
    make_scenario,
    run,
    sample_disc,
    step,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
