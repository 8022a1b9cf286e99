"""Convolution and complex algebras of finite relational structures, exactly."""

from .complexalg import all_subsets, char_map, characteristic_iso, rel_image, subset_from_map
from .convolution import (
    LatticeMap,
    conv_op,
    enumerate_maps,
    pointwise_impl,
    pointwise_join,
    pointwise_meet,
    pointwise_neg,
    random_map,
)
from .etale import (
    ConstantEtale,
    ConstantRelationalEtale,
    EtaleSubobject,
    empty_subobject,
    fiberwise_rel_image,
    per_fiber_rel_image,
    phi,
    sub_impl,
    sub_intersection,
    sub_neg,
    sub_union,
    verify_main_iso,
)
from .lattice import (
    CapacityError,
    ChainLattice,
    FiniteLattice,
    FiniteTopology,
    OpenSetLattice,
    chain_lattice,
    check_heyting_laws,
    enumerate_topologies,
    make_topology,
    open_set_heyting,
)
from .relstruct import (
    RelationalStructure,
    Signature,
    interval_structure,
)
from .terms import (
    App,
    ComplexAlgebra,
    ConvolutionAlgebra,
    Equation,
    Var,
    eval_term,
    format_equation,
    format_term,
    holds_in,
    random_equations,
    same_equations_report,
)
from .type2 import (
    GridFunction,
    StepFunction,
    crosscheck,
    grid_conv_oracle,
    random_grid_step,
    random_step,
    sample_to_grid,
    sup_left,
    sup_right,
    t2_constants,
    t2_join,
    t2_meet,
    t2_neg,
)

__version__ = "0.1.0"
