"""pi1lab: exact-arithmetic loop classification on a planar triangle bouquet
X and its segment compactification Y, with machine-checkable certificates
that the loop-space topologies of their fundamental groups differ.

The exports below load on first access (PEP 562): ``_EXPORTS`` names the
module that defines each, and ``__getattr__`` imports that module and reads
the name off it. So ``from pi1lab import spaces`` loads only what
``spaces`` imports, and ``pi1lab.classify`` loads ``pi1`` when it is read.
"""

from importlib import import_module

# Each exported name and the module of the package that defines it.
_EXPORTS = {
    "ExactDistance": "geometry",
    "PLPath": "geometry",
    "Point2": "geometry",
    "Segment": "geometry",
    "pl_path": "geometry",
    "point": "geometry",
    "rat": "geometry",
    "segment": "geometry",
    "segments_intersect": "geometry",
    "sup_distance": "geometry",
    "Loop": "loops",
    "concatenate": "loops",
    "concatenate_all": "loops",
    "constant_loop": "loops",
    "include_in_y": "loops",
    "loop_from_breakpoints": "loops",
    "realize_word": "loops",
    "reverse": "loops",
    "standard_f": "loops",
    "standard_fn": "loops",
    "validate": "loops",
    "HomotopyClass": "pi1",
    "alpha_decorate": "pi1",
    "choose_n": "pi1",
    "classify": "pi1",
    "classify_x": "pi1",
    "classify_y": "pi1",
    "collapse_to_x": "pi1",
    "loop_in_ball": "pi1",
    "probe_discreteness_x": "pi1",
    "probe_isomorphism_roundtrip": "pi1",
    "probe_nondiscreteness_y": "pi1",
    "probe_slsc_y": "pi1",
    "random_reduced_word": "pi1",
    "stability_radius": "pi1",
    "ProbeReport": "report",
    "ALPHA": "spaces",
    "Membership": "spaces",
    "SpaceHandle": "spaces",
    "SpaceKind": "spaces",
    "WidthProfile": "spaces",
    "bouquet_x": "spaces",
    "build_circle": "spaces",
    "compact_y": "spaces",
    "component_name": "spaces",
    "hausdorff_convergence": "spaces",
    "profile_by_name": "spaces",
    "verify_disjointness": "spaces",
    "IDENTITY": "words",
    "Word": "words",
    "format_word": "words",
    "generator": "words",
    "invert": "words",
    "multiply": "words",
    "parse_word": "words",
    "reduce_letters": "words",
}

__all__ = tuple(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
