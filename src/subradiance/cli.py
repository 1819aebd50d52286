"""Command-line front end: JSON config in, deterministic JSON/TSV out.

Exit codes: 0 success, 2 bad configuration, 3 regime violation reported as
an error by request, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .dynamics import (make_grid, optimize_capture, packet_norm,
                       rectangular_packet, rising_exponential,
                       trajectory_table)
from .errors import ConfigError, DomainError, RegimeError, SubradianceError
from .params import (EnsembleInput, density_for_tau_r, derive_params,
                     validate_regime)
from .schedule import plan_passive, plan_read, plan_write, verify_plan
from .states import emission_rate, named_state
from .storage import _bin_grid, end_to_end, timebin_qubit_report
from .threelevel import DriveConfig, ThreeLevelState, failure_probability, \
    pulse_outcome, transfer_time

_TIME_UNITS = {
    "s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6, "ns": 1e-9, "ps": 1e-12,
    "fs": 1e-15,
}

def parse_time(value, p=None) -> float:
    """Parse a duration: a bare number (seconds), or a string with a unit
    suffix (``"20 ns"``); ``"tau_R"`` units resolve against derived params."""
    seconds = _seconds(value, p)
    if not math.isfinite(seconds):
        raise ConfigError(f"time value {value!r} is not finite")
    return seconds


def _seconds(value, p) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, str):
        raise ConfigError(f"cannot parse time value {value!r}")
    text = value.strip()
    for unit in sorted(_TIME_UNITS, key=len, reverse=True):
        if text.endswith(unit):
            head = text[: -len(unit)].strip()
            try:
                return float(head) * _TIME_UNITS[unit]
            except ValueError:
                break
    if text.endswith("tau_R"):
        if p is None:
            raise ConfigError("tau_R units need ensemble parameters")
        head = text[: -len("tau_R")].strip().rstrip("*").strip()
        try:
            return float(head) * p.tau_R
        except ValueError as exc:
            raise ConfigError(f"cannot parse time value {value!r}") from exc
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse time value {value!r}") from exc


def _fmt(x):
    if isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            raise ConfigError("non-finite value in report")
        # round-trip through %.12g so the emitted bytes are platform-stable
        return float(f"{x:.12g}")
    if isinstance(x, complex):
        return {"re": _fmt(x.real), "im": _fmt(x.imag)}
    if isinstance(x, dict):
        return {str(k): _fmt(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_fmt(v) for v in x]
    if isinstance(x, (np.floating,)):
        return _fmt(float(x))
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, np.complexfloating):
        return _fmt(complex(x))
    return x


def emit_json(data: dict) -> str:
    """Serialize a report with floats pinned to %.12g so output bytes are
    stable across platforms."""
    return json.dumps(_fmt(data), indent=2, sort_keys=True) + "\n"


def _block(cfg: dict, name: str) -> dict:
    """Config sub-object ``name``; an absent block is empty."""
    blk = cfg.get(name, {})
    if not isinstance(blk, dict):
        raise ConfigError(f"'{name}' must be a JSON object, got {blk!r}")
    return blk


def _bounded(blk: dict, key: str, lo: float = -math.inf, hi: float = math.inf,
             default: float = 0.0) -> float:
    """Finite number ``blk[key]`` in [lo, hi]."""
    try:
        value = float(blk.get(key, default))
    except (TypeError, ValueError):
        value = math.nan
    if not (math.isfinite(value) and lo <= value <= hi):
        span = f" in [{lo:g}, {hi:g}]" if math.isfinite(lo) or math.isfinite(hi) else ""
        raise ConfigError(f"{key} must be a finite number{span}, got {blk.get(key)!r}")
    return value


def _integer(blk: dict, key: str, default: int) -> int:
    """Integral number ``blk[key]``; ``4.0`` counts, ``4.7`` and ``"x"`` do not."""
    value = blk.get(key, default)
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not number.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(number)


def _flag(blk: dict, key: str, default: bool) -> bool:
    """JSON boolean ``blk[key]``; the string ``"false"`` is not one."""
    value = blk.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _complex(blk: dict, key: str, default: complex) -> complex:
    """Complex ``key`` from the finite real fields ``{key}_re`` and ``{key}_im``."""
    return complex(_bounded(blk, key + "_re", default=default.real),
                   _bounded(blk, key + "_im", default=default.imag))


def _strings(blk: dict, key: str, default: list[str]) -> list[str]:
    """List of strings ``blk[key]``; a bare string is not one."""
    value = blk.get(key, default)
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ConfigError(f"{key} must be a list of strings, got {value!r}")
    return value


def _ensemble_input(cfg: dict) -> EnsembleInput:
    e = cfg.get("ensemble")
    if not isinstance(e, dict):
        raise ConfigError("config needs an 'ensemble' object")
    known = {"wavelength", "sample_length", "excited_lifetime",
             "cross_section", "beam_diameter", "atom_count",
             "number_density", "inhomogeneous_linewidth"}
    extra = set(e) - known
    if extra:
        raise ConfigError(f"unknown ensemble fields: {sorted(extra)}")
    try:
        return EnsembleInput(**e)
    except (TypeError, DomainError) as exc:
        raise ConfigError(f"bad ensemble block: {exc}") from exc


def _input_packet(cfg: dict, p, grid_duration_default: float, dt=None):
    blk = _block(cfg, "input")
    kind = blk.get("kind", "rectangular")
    if kind == "rectangular":
        dur = parse_time(blk.get("duration", "2.5 tau_R"), p)
        start = parse_time(blk.get("start", 0.0), p)
        total = parse_time(blk.get("grid_duration", grid_duration_default), p)
        grid = make_grid(p, total, dt=dt)
        return rectangular_packet(p, grid, dur, t_start=start), dur
    if kind == "rising_exponential":
        t_end = parse_time(blk.get("end", "20 tau_R"), p)
        total = parse_time(blk.get("grid_duration", grid_duration_default), p)
        grid = make_grid(p, max(total, t_end), dt=dt)
        return rising_exponential(t_end, p, grid), t_end
    raise ConfigError(f"unknown input kind {kind!r}")


def _params_report(p) -> dict:
    return {
        "coupling_mu": p.mu,
        "transit_time_tau_E": p.tau_E,
        "collective_lifetime_tau_R": p.tau_R,
        "crossover_time_tau_c": p.tau_c,
        "fresnel_number": p.fresnel,
        "dephasing_time_t2_star": p.t2_star,
        "atom_count": float(p.atom_count),
    }


def _scenario_params(cfg, p):
    report = {"parameters": _params_report(p)}
    if "target_tau_R" in cfg:
        target = parse_time(cfg["target_tau_R"], p)
        report["density_for_target_tau_R"] = density_for_tau_r(
            _ensemble_input(cfg), target)
    dur = parse_time(cfg.get("packet_duration", "2.5 tau_R"), p)
    pit_width = None
    if cfg.get("pit_width") is not None:
        # bounded below by the smallest positive float: a pit_width > 0
        pit_width = _bounded(cfg, "pit_width", math.ulp(0.0))
    warnings = validate_regime(p, packet_duration=dur,
                               pulse_duration=parse_time(
                                   cfg.get("pulse_duration", 0.0), p),
                               pit_width=pit_width)
    report["regime_warnings"] = warnings
    capture_dur, capture_eff = optimize_capture(p)
    report["optimal_capture"] = {"duration": capture_dur,
                                 "amplitude": capture_eff,
                                 "efficiency": capture_eff ** 2}
    return report, warnings, None


def _scenario_scatter(cfg, p):
    from .dynamics import evolve_amplitude, output_field
    f_in, dur = _input_packet(cfg, p, "6 tau_R")
    warnings = validate_regime(p, packet_duration=dur)
    traj = evolve_amplitude(f_in, 0.0, p)
    f_out = output_field(f_in, traj, p)
    report = {
        "input_norm": packet_norm(f_in, p),
        "output_norm": packet_norm(f_out, p),
        "peak_excitation": float(np.max(np.abs(traj.c)) ** 2),
        "final_excitation": float(abs(traj.c[-1]) ** 2),
        "regime_warnings": warnings,
    }
    table = trajectory_table(f_in, traj, f_out)
    return report, warnings, table


def _schedule_block(cfg, p, time_reversed: bool):
    """The schedule block with its parts, bins, bin duration and read
    direction (``time_reversed`` is the direction's default)."""
    blk = _block(cfg, "schedule")
    parts = _integer(blk, "parts", 4)
    bins = _integer(blk, "bins", parts - 1)
    bin_dur = parse_time(blk.get("bin_duration", "2.5 tau_R"), p)
    return blk, parts, bins, bin_dur, _flag(blk, "time_reversed", time_reversed)


def _active_plans(parts, bins, bin_dur, reversed_):
    write = plan_write(parts, bins, bin_dur)
    return write, plan_read(parts, bins, bin_dur, time_reversed=reversed_,
                            t0=write.t_end)


def _scenario_store(cfg, p):
    _, parts, bins, bin_dur, reversed_ = _schedule_block(cfg, p, True)
    write, read = _active_plans(parts, bins, bin_dur, reversed_)
    grid = _bin_grid(p, bin_dur, write.t_end)
    kind = _block(cfg, "input").get("kind", "rectangular")
    if kind == "rectangular":
        f_in = rectangular_packet(p, grid, bins * bin_dur)
    else:
        f_in, _ = _input_packet(cfg, p, write.t_end, dt=grid.dt)
    warnings = validate_regime(p, packet_duration=bins * bin_dur)
    report_obj = end_to_end(f_in, write, read, p,
                            loss_rate=_bounded(cfg, "loss_rate", 0.0),
                            pulse_success_amplitude=math.sqrt(
                                1.0 - _bounded(cfg, "pulse_failure", 0.0, 1.0)))
    report = {
        "write_efficiency": report_obj.write_efficiency,
        "read_efficiency": report_obj.read_efficiency,
        "total_efficiency": report_obj.total_efficiency,
        "captured": {str(k): v for k, v in report_obj.captured.items()},
        "emitted": {str(k): v for k, v in report_obj.emitted.items()},
        "fidelity": report_obj.fidelity,
        "bin_probability_error": report_obj.bin_probability_error,
        "regime_warnings": warnings,
    }
    return report, warnings, None


def _scenario_qubit(cfg, p):
    blk = _block(cfg, "qubit")
    alpha = _complex(blk, "alpha", 1 / math.sqrt(2))
    beta = _complex(blk, "beta", 1 / math.sqrt(2))
    sep = parse_time(blk.get("separation", "20 tau_R"), p)
    warnings = validate_regime(p, packet_duration=sep)
    rep = timebin_qubit_report(
        alpha, beta, sep, p,
        time_reversed=_flag(blk, "time_reversed", True),
        pulse_success_amplitude=math.sqrt(
            1.0 - _bounded(blk, "pulse_failure", 0.0, 1.0)))
    report = {
        "fidelity": rep.fidelity,
        "total_efficiency": rep.total_efficiency,
        "write_efficiency": rep.write_efficiency,
        "read_efficiency": rep.read_efficiency,
        "regime_warnings": warnings,
    }
    return report, warnings, None


def _scenario_rates(cfg, p):
    blk = _block(cfg, "states")
    names = _strings(blk, "names", ["one_sym", "two_sym", "one_AminusB",
                                    "two_AminusB", "two_prime", "two_ABCD"])
    n_atoms = _integer(blk, "atom_count", 16)
    unit = p.mu / p.excited_lifetime
    rates = {}
    for name in names:
        state = named_state(name, n_atoms)
        rates[name] = emission_rate(state, p) / unit
    return {"atom_count": n_atoms, "rates_in_units_of_mu_over_t1": rates}, [], None


def _scenario_schedule(cfg, p):
    blk, parts, bins, bin_dur, reversed_ = _schedule_block(cfg, p, False)
    if _flag(blk, "passive", False):
        write = plan_passive(parts, bins, bin_dur, stage="write")
        read = plan_passive(parts, bins, bin_dur, stage="read",
                            time_reversed=reversed_, t0=write.t_end)
    else:
        write, read = _active_plans(parts, bins, bin_dur, reversed_)
    wrep = verify_plan(write)
    rrep = verify_plan(read, write_plan=write)
    return {
        "write_plan": write.to_json(),
        "read_plan": read.to_json(),
        "write_ok": wrep.ok,
        "read_ok": rrep.ok,
        "violations": wrep.violations + rrep.violations,
        "stored_rows": {str(n): row
                        for n, row in enumerate(wrep.final_rows, start=1)},
        "emission_order": list(rrep.emission_order),
        "emission_signs": list(rrep.emission_signs),
    }, [], None


def _scenario_threelevel(cfg, p):
    blk = _block(cfg, "threelevel")
    try:
        drive = DriveConfig(g_a=_bounded(blk, "g_a", default=1.0),
                            g_b=_bounded(blk, "g_b", default=1.0),
                            alpha=_complex(blk, "alpha", 10.0))
    except SubradianceError as exc:
        raise ConfigError(str(exc)) from exc
    amps = blk.get("initial", [1.0, 0.0, 0.0])
    try:
        # an amplitude is a number or a string such as "0.6+0.8j"
        initial = tuple(complex(a) for a in amps) if isinstance(amps, list) else None
    except (TypeError, ValueError):
        initial = None
    if initial is None:
        raise ConfigError(f"initial must be a list of complex amplitudes, got {amps!r}")
    state = ThreeLevelState(initial)
    out = pulse_outcome(state, drive)
    return {
        "rabi_rate": drive.rabi_rate,
        "effective_rate": drive.effective_rate,
        "transfer_time": transfer_time(drive),
        "final_populations": list(out.populations),
        "failure_probability": failure_probability(state.amplitudes[0], drive),
    }, [], None


# Each scenario maps (config, derived parameters) to (report, warnings, table).
_SCENARIOS = {
    "params": _scenario_params,
    "scatter": _scenario_scatter,
    "store": _scenario_store,
    "qubit": _scenario_qubit,
    "rates": _scenario_rates,
    "schedule": _scenario_schedule,
    "threelevel": _scenario_threelevel,
}


def _run_scenario(name, cfg):
    if name in ("rates", "threelevel") and "ensemble" not in cfg:
        # these scenarios only need mu/T1 ratios or no ensemble at all
        cfg = dict(cfg)
        cfg["ensemble"] = {
            "wavelength": 606e-9, "sample_length": 5e-3,
            "excited_lifetime": 164e-6, "beam_diameter": 100e-6,
            "atom_count": 10 ** 7,
        }
    return _SCENARIOS[name](cfg, derive_params(_ensemble_input(cfg)))


def _apply_sweep(cfg: dict, path: str, value: float) -> dict:
    keys = path.split(".")
    out = json.loads(json.dumps(cfg))
    node = out
    for k in keys[:-1]:
        node = node.setdefault(k, {})
    node[keys[-1]] = value
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subradiance",
        description="Plan and simulate single-photon storage in "
                    "subradiant collective modes.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", required=True,
                        help="path to a JSON configuration file")
    parser.add_argument("--scenario", choices=_SCENARIOS,
                        help="override the scenario named in the config")
    parser.add_argument("--out", help="write the JSON report here "
                                      "instead of stdout")
    parser.add_argument("--table-out",
                        help="write the trajectory table (TSV) here")
    parser.add_argument("--sweep", metavar="PATH=V1,V2,...",
                        help="rerun the scenario for each value of a "
                             "dotted config key, e.g. ensemble.atom_count=1e6,1e7")
    parser.add_argument("--strict-regime", action="store_true",
                        help="treat regime warnings as errors (exit 3)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress warnings on stderr")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 4
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print("error: config root must be a JSON object", file=sys.stderr)
        return 2

    scenario = args.scenario or cfg.get("scenario")
    if scenario not in _SCENARIOS:
        print(f"error: scenario must be one of {', '.join(_SCENARIOS)}",
              file=sys.stderr)
        return 2

    runs = [(None, cfg)]
    if args.sweep:
        try:
            path, _, values = args.sweep.partition("=")
            vals = [float(v) for v in values.split(",") if v]
            if not path or not vals:
                raise ValueError("empty sweep")
        except ValueError as exc:
            print(f"error: bad sweep spec: {exc}", file=sys.stderr)
            return 2
        runs = [(v, _apply_sweep(cfg, path.strip(), v)) for v in vals]

    reports = []
    all_warnings = []
    table = None
    try:
        for value, one_cfg in runs:
            report, warnings, t = _run_scenario(scenario, one_cfg)
            all_warnings.extend(warnings)
            if t is not None:
                table = t
            if value is not None:
                report = {"sweep_value": value, **report}
            reports.append(report)
    except (ConfigError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SubradianceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if all_warnings and not args.quiet:
        for w in all_warnings:
            print(f"warning: {w}", file=sys.stderr)
    if all_warnings and args.strict_regime:
        print("error: regime warnings present with --strict-regime",
              file=sys.stderr)
        return 3

    payload = {"scenario": scenario,
               "report": reports[0] if len(runs) == 1 else reports}
    text = emit_json(payload)
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if table is not None and args.table_out:
            with open(args.table_out, "w", encoding="utf-8") as fh:
                fh.write(table)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
