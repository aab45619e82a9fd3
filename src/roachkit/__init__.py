"""Finite S4-frame combinatorics: roaches, willow trees, Fine-Jankov
formulas, a bounded decision procedure for the logic of 2-roaches, and
ordinal classification in Cantor normal form."""

__version__ = "0.1.0"

from .construct import roach_to_willow, unravel_to_quasi_tree  # noqa: F401
from .decision import decide_lr2, lr2_axioms  # noqa: F401
from .formulas import axiom, fine_jankov, parse, render  # noqa: F401
from .frames import (  # noqa: F401
    Frame,
    FrameFlags,
    are_isomorphic,
    classify_frame,
    clusters_and_skeleton,
    enumerate_frames,
    frame_from_json,
    generated_subframe,
    normalize_frame,
)
from .morphisms import (  # noqa: F401
    PMorphism,
    check_p_morphism,
    find_onto_p_morphism,
    is_permissible,
)
from .ordinals import classify_beta_logic, logic_of_ordinal_space, parse_ordinal  # noqa: F401
from .roach import (  # noqa: F401
    builtin,
    is_2_roach,
    is_willow_tree,
    minimal_forbidden_witness,
    splitting_certificate,
)
from .semantics import Model, extension, find_refutation, frame_validates  # noqa: F401
