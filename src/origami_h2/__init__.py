"""Primitive square-tiled surfaces in the stratum H(2).

Enumeration of primitive n-square origamis, their SL(2,Z) orbits and cusps,
stabiliser indices and levels, and mechanical noncongruence certificates.
"""

from .congruence import (
    ArithmeticWitness,
    FactoredInteger,
    NoncongruenceCertificate,
    bad_case_classifier,
    congruence_verify_level2,
    coprime_part,
    expected_index,
    factorize,
    formula_split,
    formula_total,
    index_obstruction_check,
    lcm_upto,
    noncongruence_search,
    principal_index,
    relative_index,
    smooth_p2m1_scan,
    stratum_product,
    verify_certificate,
)
from .enumeration import (
    CountReport,
    classify,
    count_primitive,
    enumerate_diagrams,
    total_count_with_imprimitive,
    verify_counts,
)
from .origami_core import (
    InvalidSurfaceError,
    OneCylinder,
    Origami,
    TwoCylinder,
    build_from_diagram,
    build_l_shape,
    build_one_cylinder,
    build_two_cylinder,
    canonical_key,
    cylinder_decomposition,
    in_h2,
    integer_weierstrass_count,
    is_primitive,
    key_from_text,
    key_to_text,
    origami_from_key,
    parse_diagram,
)
from .sl2_orbit import (
    MatrixZ,
    Orbit,
    apply_S,
    apply_T,
    apply_matrix,
    level,
    membership,
    orbit,
    orbit_from_json,
    orbit_to_json,
    u_orbit_width,
)

__version__ = "0.1.0"
