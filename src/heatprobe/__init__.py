"""Tracking moving inhomogeneities in 2D parabolic problems from one pair
of lateral boundary measurements."""

from .mesh import (Mesh, MeshError, TransferOps, boundary_distance,
                   build_disk_mesh, build_transfer, prolong, restrict)
from .fem import (BoundaryTrace, FemError, InhomogeneityOp, SegmentGrid,
                  Trajectory, assemble_mass, assemble_neumann_load,
                  assemble_reaction, assemble_stiffness,
                  backward_adjoint_solve, boundary_trace, dirichlet_solve,
                  forward_solve, segment_grid, source_load)
from .scenario import (Inclusion, Scenario, ScenarioError, builtin,
                       eval_truth, load_scenario_config, null_scenario,
                       resolve_scenario)
from .synth import (MeasurementSet, SynthError, add_noise,
                    build_measurement_set, generate_reference,
                    sample_measurement)
from .reconstruction import (Counters, Options, ResolverKernel, RunResult,
                   SegmentReport, apply_kernel, damp_kernel, eta_hat,
                   local_dual, make_kernel, project, rescale_diag, run,
                   run_segment, update_bfg, update_dfp)

__version__ = "0.1.0"
