"""Space-efficient multiplication data structures for finite groups.

The library takes a group as an explicit Cayley table, builds one of
several query structures trading space against per-query array probes,
and can verify any structure exhaustively against the table.  All
representations follow a small estimator protocol: ``Kind(**params)``,
``fit(group)``, then ``multiply(x, y)`` / ``predict(pairs)``.
"""

from .base import (
    CapacityError,
    Estimator,
    GtoolError,
    NotFittedError,
    ParseError,
    PreconditionError,
    Representation,
    ValidationError,
)
from .groups import (
    GroupTable,
    SemidirectSpec,
    as_group,
    load_cayley_file,
    load_cayley_table,
    make_abelian,
    make_alternating,
    make_cyclic,
    make_dihedral,
    make_direct,
    make_psl2,
    make_quaternion,
    make_semidirect,
    make_symmetric,
    trivial_action,
)
from .audit import ProbeLedger, SpaceReport, assert_fits, measure, probe_counted_multiply
from .blockrep import BlockRep, choose_block_length, tradeoff_table
from .cubegen import CubeSequence, GreedyTrace, greedy_cube_sequence, verify_cube
from .fm import (
    AbelianFM,
    AbelianScheme,
    CycleStructure,
    HamiltonianFM,
    SemidirectFM,
    ZGroupFM,
    compress_abelian,
    compress_abelian_from_orders,
    compress_hamiltonian,
    compress_semidirect,
    compress_zgroup,
    qpu_space,
)
from .special import CompositeRep, CyclicRep, SimpleRep
from .structure import (
    AbelianBasis,
    abelian_basis,
    find_hamiltonian_decomposition,
    find_semidirect_decomposition,
    find_zgroup_decomposition,
    is_simple,
    is_z_group,
)
from .verify import verify_exhaustive, verify_random

__version__ = "0.1.0"

__all__ = [
    "AbelianBasis", "AbelianFM", "AbelianScheme", "BlockRep", "CapacityError",
    "CompositeRep", "CubeSequence", "CycleStructure", "CyclicRep", "Estimator",
    "GreedyTrace", "GroupTable", "GtoolError", "HamiltonianFM",
    "NotFittedError", "ParseError", "PreconditionError", "ProbeLedger",
    "Representation", "SemidirectFM", "SemidirectSpec", "SimpleRep",
    "SpaceReport", "ValidationError", "ZGroupFM", "abelian_basis",
    "as_group", "assert_fits", "choose_block_length",
    "compress_abelian", "compress_abelian_from_orders",
    "compress_hamiltonian", "compress_semidirect", "compress_zgroup",
    "find_hamiltonian_decomposition",
    "find_semidirect_decomposition", "find_zgroup_decomposition",
    "greedy_cube_sequence", "is_simple", "is_z_group", "load_cayley_file",
    "load_cayley_table", "make_abelian", "make_alternating", "make_cyclic",
    "make_dihedral", "make_direct", "make_psl2", "make_quaternion",
    "make_semidirect", "make_symmetric", "measure", "probe_counted_multiply",
    "qpu_space", "tradeoff_table", "trivial_action", "verify_cube",
    "verify_exhaustive", "verify_random",
]
