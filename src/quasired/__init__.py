"""Exact-arithmetic Lie theory: Chevalley bases, Kostant cascades, seaweed
subalgebras, coadjoint stabilizers and quasi-reductivity classification."""

from .cascade import (
    Cascade,
    CascadeNode,
    condition_star,
    k_minus_set,
    k_plus,
    kostant_cascade,
    tilde_delta_plus,
    tilde_pi,
    well_interlaced,
)
from .classify import (
    FlagSpec,
    Verdict,
    classify_parabolic,
    dkt_flag_test,
    enumerate_index_zero,
    enumerate_verdicts,
    pi_to_flag,
    single_root_test,
    transitivity_descend,
)
from .rootsys import (
    AlgebraElement,
    Root,
    RootSystem,
    SimpleType,
    bracket,
    build_root_system,
    h_vector,
    killing,
    x_vector,
)
from .seaweed import (
    BiparabolicSpec,
    CoefficientVector,
    biparabolic_basis,
    build_u,
    build_u_minus,
    interlaced_torus_elements,
    parabolic,
    rank2_stabilizer_element,
    seaweed_index,
)
from .stabilizer import (
    Subspace,
    TorusCertificate,
    certificate_from_text,
    certificate_to_text,
    certify_quasi_reductive,
    form_stabilizer,
    is_abelian,
    is_semisimple_element,
    killing_radical_on,
    reverify_certificate,
)

__version__ = "0.1.0"
