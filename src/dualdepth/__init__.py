"""Ray-crossing depth of points against hyperplane families.

Exact rational computation of dual depth, depth-maximizing central points,
dual Tverberg partitions with interior certificates, and Monte Carlo
verification of the measure-level counterparts.
"""

__version__ = "1.0.0"

import os

# The count products are small matrix products that run many times slower
# when BLAS threads contend with other work on the host.  Default to one
# thread before numpy loads its BLAS; a setting made before this import
# wins, and none of this has an effect once numpy has been imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .geometry import (
    DegenerateInstanceError,
    DegenerateSubfamilyError,
    DimensionMismatchError,
    GeneralPositionResult,
    GeometryError,
    Hyperplane,
    Instance,
    ZeroDirectionError,
    check_general_position,
    ensure_general_position,
)
from .depth import (
    DepthCertificate,
    dual_depth,
    max_depth_point,
    ray_crossings,
    signature_of,
)
from .tverberg import (
    PartitionResult,
    SimplexSpec,
    colorful_dual_tverberg_search,
    common_interior_point,
    dual_tverberg_plane,
    dual_tverberg_search,
    form_simplex,
)
from .measures import (
    FlatMeasureSpec,
    VerificationReport,
    search_center_sampled,
    sphere_covering,
    verify_dual_cpt_measure,
    verify_dual_ctr,
)
from .generators import MODELS, gen_instance
from .io import (
    FORMAT_VERSION,
    ParseError,
    instance_measure,
    parse_instance,
    parse_scalar,
    scalar_to_str,
    write_instance,
)
from .svg import UnsupportedDimensionError, render_svg

__all__ = [
    "__version__",
    "GeometryError",
    "DimensionMismatchError",
    "ZeroDirectionError",
    "DegenerateSubfamilyError",
    "DegenerateInstanceError",
    "GeneralPositionResult",
    "Hyperplane",
    "Instance",
    "check_general_position",
    "ensure_general_position",
    "DepthCertificate",
    "dual_depth",
    "max_depth_point",
    "ray_crossings",
    "signature_of",
    "PartitionResult",
    "SimplexSpec",
    "colorful_dual_tverberg_search",
    "common_interior_point",
    "dual_tverberg_plane",
    "dual_tverberg_search",
    "form_simplex",
    "FlatMeasureSpec",
    "VerificationReport",
    "search_center_sampled",
    "sphere_covering",
    "verify_dual_cpt_measure",
    "verify_dual_ctr",
    "MODELS",
    "gen_instance",
    "FORMAT_VERSION",
    "ParseError",
    "instance_measure",
    "parse_instance",
    "parse_scalar",
    "scalar_to_str",
    "write_instance",
    "UnsupportedDimensionError",
    "render_svg",
]
