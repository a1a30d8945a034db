"""Monte Carlo model and analysis tools for an ultrafast time-bin
decoy-state key distribution link: picosecond qubit preparation, an
all-optical Kerr-effect receiver switch, threshold detection with the
usual imperfections, and the vacuum+weak decoy bound on the key rate.
"""

from .errors import ConfigError, InvalidInputError
from .qubit import (
    BB84_SETTINGS,
    Basis,
    mub_states,
    overlap_probability,
    prepare_state,
)
from .switch import (
    DEFAULT_PUMP_FWHM_PS,
    DEFAULT_SIGNAL_FWHM_PS,
    DEFAULT_WALKOFF_PS,
    SwitchModel,
    effective_efficiency,
    nonlinear_phase,
    switching_efficiency,
    with_delay,
)
from .source import sample_photon_number, transmittance
from .detection import (
    accumulate,
    read_pulse_ledger,
    read_time_tags,
    simulate_block,
    write_pulse_ledger,
    write_time_tags,
)
from .analysis import (
    AnalyticChannel,
    conditional_probabilities,
    decoy_bounds,
    secret_key_rate,
)
from .experiment import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    extract_separation,
    plateau_mean,
    read_counts_json,
    run_loss_sweep,
    run_pump_delay_scan,
    run_session,
    run_stability,
    write_counts_json,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticChannel",
    "BB84_SETTINGS",
    "Basis",
    "ConfigError",
    "DEFAULT_PUMP_FWHM_PS",
    "DEFAULT_SIGNAL_FWHM_PS",
    "DEFAULT_WALKOFF_PS",
    "ExperimentConfig",
    "InvalidInputError",
    "SwitchModel",
    "accumulate",
    "config_from_dict",
    "config_to_dict",
    "conditional_probabilities",
    "decoy_bounds",
    "effective_efficiency",
    "extract_separation",
    "mub_states",
    "nonlinear_phase",
    "overlap_probability",
    "plateau_mean",
    "prepare_state",
    "read_counts_json",
    "read_pulse_ledger",
    "read_time_tags",
    "run_loss_sweep",
    "run_pump_delay_scan",
    "run_session",
    "run_stability",
    "sample_photon_number",
    "secret_key_rate",
    "simulate_block",
    "switching_efficiency",
    "transmittance",
    "with_delay",
    "write_counts_json",
    "write_pulse_ledger",
    "write_time_tags",
]
