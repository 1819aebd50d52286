"""Simulator and protocol planner for single-photon storage in subradiant
collective modes of an extended two-level atomic ensemble."""

__version__ = "1.0.0"

from .errors import (ConfigError, DomainError, GridError, PlanError,
                     RegimeError, SubradianceError)
from .params import (C_LIGHT, EnsembleInput, EnsembleParams, density_for_tau_r,
                     derive_params, validate_regime)
from .dynamics import (AmplitudeTrajectory, TimeGrid, WavePacket,
                       closed_form_rectangular, closed_form_rising,
                       evolve_amplitude, forward_scatter, make_grid,
                       optimize_capture, output_field, packet_from_samples,
                       packet_norm, packet_overlap, rectangular_packet,
                       rising_exponential, trajectory_table, zero_packet)
from .states import (FullBasisState, Partition, PartitionedState, SignPattern,
                     apply_sign_pattern, brute_force_rate, emission_rate,
                     lower, named_state, symmetric_partitioned,
                     symmetric_state, to_full_basis)
from .schedule import (PiPairConfig, PlanReport, PulseEvent, PulsePlan,
                       plan_passive, plan_read, plan_write, sylvester,
                       validate_pi_pair, verify_plan)
from .storage import (LedgerEntry, ModeLedger, ReadRecord, StorageReport,
                      end_to_end, simulate_read, simulate_write,
                      timebin_qubit_fidelity, timebin_qubit_report)
from .threelevel import (DriveConfig, ThreeLevelState, evolve,
                         failure_probability, pulse_outcome, transfer_time)

__all__ = [name for name in dir() if not name.startswith("_")]
