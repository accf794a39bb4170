"""pi1lab: exact-arithmetic loop classification on a planar triangle bouquet
X and its segment compactification Y, with machine-checkable certificates
that the loop-space topologies of their fundamental groups differ.
"""

from .geometry import (
    ExactDistance,
    PLPath,
    Point2,
    Segment,
    pl_path,
    point,
    rat,
    segment,
    segments_intersect,
    sup_distance,
)
from .loops import (
    Loop,
    concatenate,
    concatenate_all,
    constant_loop,
    include_in_y,
    loop_from_breakpoints,
    realize_word,
    reverse,
    standard_f,
    standard_fn,
    validate,
)
from .pi1 import (
    HomotopyClass,
    alpha_decorate,
    choose_n,
    classify,
    classify_x,
    classify_y,
    collapse_to_x,
    induced_map,
    loop_in_ball,
    probe_discreteness_x,
    probe_isomorphism_roundtrip,
    probe_nondiscreteness_y,
    probe_slsc_y,
    random_reduced_word,
    stability_radius,
)
from .report import ProbeReport
from .spaces import (
    ALPHA,
    Membership,
    SpaceHandle,
    SpaceKind,
    WidthProfile,
    bouquet_x,
    build_circle,
    compact_y,
    component_name,
    default_x,
    default_y,
    hausdorff_convergence,
    profile_by_name,
    verify_disjointness,
)
from .words import (
    IDENTITY,
    Word,
    format_word,
    generator,
    invert,
    multiply,
    parse_word,
    reduce_letters,
)

__version__ = "0.1.0"
