"""Multi-frequency harmonic analysis laboratory on a sampled torus."""

from .errors import (
    ConstructionError,
    DegenerateInputError,
    GridMismatchError,
    LabError,
    ResolutionError,
    SymbolSupportError,
)
from .grid import (
    DyadicFreqInterval,
    FrequencySet,
    Signal,
    Spectrum,
    TorusGrid,
    apply_multiplier,
    forward_transform,
    inverse_transform,
    signal_from_csv,
    signal_to_csv,
    spectrum_to_csv,
)
from .bumps import (
    BUMP_SHAPES,
    build_dk_symbol,
    bump_profile,
    dk_tiles,
    plateau_profile,
    smoothstep,
)
from .mfcz import (
    CZDecomposition,
    CZInterval,
    CZReport,
    cz_reports_to_csv,
    mfcz_decompose,
    moment_match,
    select_intervals,
    verify_mfcz,
)
from .symbols import (
    EtaScaleDiag,
    LayerPiece,
    LayeredSymbol,
    WhitneyPiece,
    WhitneySystem,
    WindowExpansion,
    WindowPiece,
    WindowSystem,
    layered_to_csv,
    vr_layer_decompose,
    whitney_decompose,
    whitney_to_csv,
    window_system,
    windowed_expand,
)
from .operators import (
    RoughMultiplierSpec,
    ScaleRange,
    default_scale_range,
    dk_apply,
    rough_T,
    rvar_M,
    sharp_maximal,
    vq_dk,
)
from .fluctuation import symbol_vr_norm, variation_norm

__version__ = "0.1.0"
