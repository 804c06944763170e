"""Spanning-tree packing numbers with certificates, exact spectra, and
edge connectivity, plus the tight d-regular families relating them."""

from .connectivity import CutResult, edge_connectivity
from .exact import (
    IntPoly,
    RootInterval,
    cauchy_bound,
    char_poly_exact,
    count_real_roots,
    descartes_positivity_check,
    det_exact,
    isolate_real_roots,
    sturm_isolate_largest_root,
)
from .families import (
    FAMILIES,
    FamilyReport,
    FamilySpec,
    build_Gd,
    build_Hd,
    gd_interval,
    hd_interval,
    p3_poly,
    p10_poly,
    verify_Gd,
    verify_Hd,
    verify_family,
)
from .graphs import (
    Graph,
    VertexPartition,
    complete_graph,
    crossing_edges,
    make_graph,
    parse_edge_list,
    partition,
    petersen_graph,
    to_edge_list,
)
from .packing import (
    PackResult,
    TreeCount,
    TreePackingResult,
    count_spanning_trees,
    pack_trees,
    sigma,
    verify_certificate,
    verify_pack_result,
)
from .randgen import GenConfig, TheoremReport, random_regular, splitmix64, theorem_check
from .spectra import (
    QuotientMatrix,
    adjacency_spectrum,
    check_interlacing,
    eig_symmetric,
    equitable_quotient,
    lambda2,
    laplacian_spectrum,
    multiplicities,
    quotient_matrix,
)

__version__ = "0.1.0"
