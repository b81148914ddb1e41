"""Composable analog non-idealities for the crossbar engine.

The stuck-at fault model of :mod:`repro.faults` covers *hard* defects;
this package adds the *analog* realism layers a deployed ReRAM accelerator
cannot escape — DAC/ADC quantization, finite-state conductance mapping,
wire IR drop, transient soft errors with online scrubbing, programming
error, read noise and retention drift — as composable, versioned
transforms the :class:`~repro.nn.fault_aware.CrossbarEngine` applies to
effective weights (see :mod:`repro.analog.stack` for the layer order and cache
contract).
"""

from repro.analog.conductance import (
    ConductanceConfig,
    conductance_roundtrip,
    conductances_to_weight,
    quantize_conductance,
    weight_lsb,
    weight_to_conductances,
)
from repro.analog.irdrop import IRDropConfig, attenuation_block, attenuation_map
from repro.analog.quantization import (
    QuantizationConfig,
    clipped_fraction,
    quantization_levels,
    quantize_uniform,
)
from repro.analog.soft_error import SoftErrorConfig, SoftErrorState
from repro.analog.stack import (
    ANALOG_PRESETS,
    AnalogConfig,
    AnalogStack,
    make_analog_config,
)
from repro.analog.variation import VariationModel

__all__ = [
    "ANALOG_PRESETS",
    "AnalogConfig",
    "AnalogStack",
    "ConductanceConfig",
    "IRDropConfig",
    "QuantizationConfig",
    "SoftErrorConfig",
    "SoftErrorState",
    "VariationModel",
    "attenuation_block",
    "attenuation_map",
    "clipped_fraction",
    "conductance_roundtrip",
    "conductances_to_weight",
    "make_analog_config",
    "quantization_levels",
    "quantize_conductance",
    "quantize_uniform",
    "weight_lsb",
    "weight_to_conductances",
]
