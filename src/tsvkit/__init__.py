"""tsvkit: RLGC macromodel of a signal-ground TSV pair with an explicit
substrate port, S-parameter/Touchstone export, and substrate-coupled
oscillator spur estimation."""

__version__ = "0.1.0"

from .errors import (CalibrationWarning, ConfigError, ConversionError,
                     GeometryOverlapError, ModelValidityError, NarrowbandWarning,
                     NetworkDegeneracyError, TouchstoneError, TsvKitError,
                     ValidationError)
from .network import (FrequencyGrid, ThreePortZ, ZSweep, branch_impedances,
                      verify_dual_route, z_matrix_at, z_matrix_mna, z_sweep, z_sweep_csv)
from .params import (DEFAULT_GEOMETRY, DEFAULT_MATERIALS, MaterialParams,
                     TsvGeometry, load_config, sigma_from_mobility)
from .rlgc import (RlgcElements, c_d, c_ox, c_si_g_si, depletion_width, l_tsv,
                   r_ac, r_dc, r_total, rlgc_at, skin_depth)
from .sparams import (SSweep, ThreePortS, magnitude_db, max_singular_value,
                      modal_s, s_sweep, s_sweep_csv, s_to_z, z_to_s)
from .spur import (BUILTIN_CALIBRATION_POINTS, CalibrationResult, OscillatorModel,
                   amplitude_sweep, builtin_oscillator, calibrate_k_sub, frequency_sweep,
                   modulation_index, slope_per_octave, spur_dbc, substrate_transfer,
                   substrate_transfer_mna)
from .touchstone import TouchstoneDocument, read_s3p, write_s3p

__all__ = [name for name in dir() if not name.startswith("_")]
