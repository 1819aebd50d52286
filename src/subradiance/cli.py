"""Command-line front end: JSON config in, deterministic JSON/TSV out.

Exit codes: 0 success, 2 bad configuration, 3 regime violation reported as
an error by request, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import cmath
import collections
import functools
import json
import math
import sys
from dataclasses import MISSING, fields

import numpy as np

from . import __version__
from .dynamics import (evolve_amplitude, make_grid, optimize_capture,
                       output_field, packet_norm, rectangular_packet,
                       rising_exponential, trajectory_table)
from .errors import ConfigError, DomainError, RegimeError, SubradianceError
from .params import (EnsembleInput, density_for_tau_r, derive_params,
                     validate_regime)
from .schedule import _verify_read, plan_passive, plan_read, plan_write, verify_plan
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
    if isinstance(x, np.generic):
        return _fmt(x.item())
    return x


def emit_json(data: dict) -> str:
    """Serialize a report with floats pinned to %.12g so output bytes are
    stable across platforms."""
    return json.dumps(_fmt(data), indent=2, sort_keys=True) + "\n"


# Every config field by block ("" is the root, whose fields are those of every
# scenario), with its kind, its default and, for numbers, its bounds (for a
# "choice", its choices).  A default of None means absent unless given, and
# only such a field reads JSON null as absent; MISSING means required.  A
# complex field ``k`` is given as the numbers ``k_re`` and ``k_im``;
# "amplitudes" are three complex numbers or strings such as "0.6+0.8j".
_Field = collections.namedtuple("_Field", "kind default lo hi choices",
                                defaults=(None, -math.inf, math.inf, ()))
_FIELDS = {
    "": {
        "target_tau_R": _Field("time"),
        "packet_duration": _Field("time", "2.5 tau_R"),
        "pulse_duration": _Field("time", 0.0),
        "pit_width": _Field("number", lo=math.ulp(0.0)),
        "loss_rate": _Field("number", 0.0, lo=0.0),
        "pulse_failure": _Field("number", 0.0, lo=0.0, hi=1.0),
    },
    "ensemble": {f.name: _Field("number", f.default) for f in fields(EnsembleInput)},
    "input": {
        "kind": _Field("choice", "rectangular",
                       choices=("rectangular", "rising_exponential")),
        "duration": _Field("time", "2.5 tau_R"),
        "start": _Field("time", 0.0),
        "end": _Field("time", "20 tau_R"),
        "grid_duration": _Field("time"),  # absent: the scenario's span
    },
    "schedule": {
        "parts": _Field("integer", 4),
        "bins": _Field("integer"),  # absent: parts - 1
        "bin_duration": _Field("time", "2.5 tau_R"),
        "time_reversed": _Field("flag"),  # absent: the scenario's direction
        "passive": _Field("flag", False),
    },
    "qubit": {
        "alpha": _Field("complex", 1 / math.sqrt(2)),
        "beta": _Field("complex", 1 / math.sqrt(2)),
        "separation": _Field("time", "20 tau_R"),
        "time_reversed": _Field("flag", True),
        "pulse_failure": _Field("number", 0.0, lo=0.0, hi=1.0),
    },
    "states": {
        "names": _Field("strings", ["one_sym", "two_sym", "one_AminusB",
                                    "two_AminusB", "two_prime", "two_ABCD"]),
        "atom_count": _Field("integer", 16),
    },
    "threelevel": {
        "g_a": _Field("number", 1.0),
        "g_b": _Field("number", 1.0),
        "alpha": _Field("complex", 10.0),
        "initial": _Field("amplitudes", [1.0, 0.0, 0.0]),
    },
}


# The config keys of each block.
_KEYS = {block: {key for name, f in table.items()
                 for key in ((name + "_re", name + "_im") if f.kind == "complex" else (name,))}
         for block, table in _FIELDS.items()}


def _block(cfg: dict, block: str) -> dict:
    """Config block ``block`` ("" is the root), {} where it is absent."""
    blk = cfg.get(block, {}) if block else cfg
    if not isinstance(blk, dict):
        raise ConfigError(f"'{block}' must be a JSON object, got {blk!r}")
    return blk


def _read(cfg: dict, block: str, p=None) -> dict:
    """The checked, defaulted fields of config block ``block`` ("" is the
    root); a ConfigError names the first unknown or bad field."""
    blk = _block(cfg, block)
    prefix = block + "." if block else ""
    unknown = set(blk) - _KEYS[block] - (set() if block else {"scenario", *_FIELDS})
    if unknown:
        raise ConfigError(f"unknown field '{prefix}{min(unknown)}'")
    return {key: _value(blk, prefix, key, f, p) for key, f in _FIELDS[block].items()}


def _value(blk: dict, prefix: str, key: str, f: _Field, p):
    """Field ``key`` of ``blk`` converted to its kind."""
    if f.kind == "complex":
        return complex(_value(blk, prefix, key + "_re", _Field("number", f.default.real), p),
                       _value(blk, prefix, key + "_im", _Field("number", f.default.imag), p))
    name, value = prefix + key, blk.get(key, f.default)
    if value is MISSING:
        raise ConfigError(f"{name} is required")
    if value is None and f.default is None:
        return None
    if f.kind == "time":
        try:
            return parse_time(value, p)
        except ConfigError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    if f.kind == "flag":
        ok, want = isinstance(value, bool), "true or false"
    elif f.kind == "choice":
        ok, want = value in f.choices, "one of " + ", ".join(f.choices)
    elif f.kind == "strings":
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
        want = "a list of strings"
    elif f.kind == "amplitudes":
        try:
            amps = tuple(complex(a) for a in value if not isinstance(a, bool))
        except (TypeError, ValueError, OverflowError):
            amps = ()
        ok = (isinstance(value, list) and len(amps) == len(value) == 3
              and all(map(cmath.isfinite, amps)))
        want = "a list of three finite complex amplitudes"
        value = amps if ok else value
    else:
        real = type(value) is float or type(value) is int and abs(value) < 1e308
        number = float(value) if real else math.nan  # not true, nor a huge integer
        ok = (math.isfinite(number) and f.lo <= number <= f.hi
              and (f.kind == "number" or number.is_integer()))
        if ok:
            return number if f.kind == "number" else int(number)
        span = f" in [{f.lo:g}, {f.hi:g}]" if (f.lo, f.hi) != (-math.inf, math.inf) else ""
        want = f"a finite number{span}" if f.kind == "number" else "an integer"
    if not ok:
        raise ConfigError(f"{name} must be {want}, got {value!r}")
    return value


def _input_packet(inp: dict, p, span: float, dt=None):
    """The input packet and its duration; its grid is ``span`` long unless
    ``grid_duration`` is given."""
    total = span if inp["grid_duration"] is None else inp["grid_duration"]
    if inp["kind"] == "rising_exponential":
        grid = make_grid(p, max(total, inp["end"]), dt=dt)
        return rising_exponential(inp["end"], p, grid), inp["end"]
    grid = make_grid(p, total, dt=dt)
    return rectangular_packet(p, grid, inp["duration"], t_start=inp["start"]), inp["duration"]


def _scenario_params(cfg, root, p):
    report = {"parameters": {
        "coupling_mu": p.mu,
        "transit_time_tau_E": p.tau_E,
        "collective_lifetime_tau_R": p.tau_R,
        "crossover_time_tau_c": p.tau_c,
        "fresnel_number": p.fresnel,
        "dephasing_time_t2_star": p.t2_star,
        "atom_count": float(p.atom_count),
    }}
    if root["target_tau_R"] is not None:
        report["density_for_target_tau_R"] = density_for_tau_r(
            EnsembleInput(**_read(cfg, "ensemble")), root["target_tau_R"])
    warnings = validate_regime(p, packet_duration=root["packet_duration"],
                               pulse_duration=root["pulse_duration"],
                               pit_width=root["pit_width"])
    report["regime_warnings"] = warnings
    capture_dur, capture_eff = optimize_capture(p)
    report["optimal_capture"] = {"duration": capture_dur,
                                 "amplitude": capture_eff,
                                 "efficiency": capture_eff ** 2}
    return report, warnings, None


def _scenario_scatter(cfg, root, p):
    f_in, dur = _input_packet(_read(cfg, "input", p), p, 6 * p.tau_R)
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
    return report, warnings, functools.partial(trajectory_table, f_in, traj, f_out)


def _plans(schedule: dict, reversed_default: bool):
    """The write and read plans of a read schedule block, active or passive;
    the read direction defaults to ``reversed_default``."""
    parts, bin_dur = schedule["parts"], schedule["bin_duration"]
    bins = parts - 1 if schedule["bins"] is None else schedule["bins"]
    reversed_ = (reversed_default if schedule["time_reversed"] is None
                 else schedule["time_reversed"])
    if schedule["passive"]:
        write = plan_passive(parts, bins, bin_dur, stage="write")
        read = functools.partial(plan_passive, stage="read")
    else:
        write, read = plan_write(parts, bins, bin_dur), plan_read
    return write, read(parts, bins, bin_dur, time_reversed=reversed_, t0=write.t_end)


def _scenario_store(cfg, root, p):
    write, read = _plans(_read(cfg, "schedule", p), True)
    bins, bin_dur = write.bins, write.bin_duration
    grid = _bin_grid(p, bin_dur, write.t_end)
    inp = _read(cfg, "input", p)
    if inp["kind"] == "rectangular":
        f_in = rectangular_packet(p, grid, bins * bin_dur)
    else:
        f_in, _ = _input_packet(inp, p, write.t_end, dt=grid.dt)
    warnings = validate_regime(p, packet_duration=bins * bin_dur)
    report_obj = end_to_end(f_in, write, read, p, loss_rate=root["loss_rate"],
                            pulse_success_amplitude=math.sqrt(
                                1.0 - root["pulse_failure"]))
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


def _scenario_qubit(cfg, root, p):
    qubit = _read(cfg, "qubit", p)
    warnings = validate_regime(p, packet_duration=qubit["separation"])
    rep = timebin_qubit_report(
        qubit["alpha"], qubit["beta"], qubit["separation"], p,
        time_reversed=qubit["time_reversed"],
        pulse_success_amplitude=math.sqrt(1.0 - qubit["pulse_failure"]))
    report = {
        "fidelity": rep.fidelity,
        "total_efficiency": rep.total_efficiency,
        "write_efficiency": rep.write_efficiency,
        "read_efficiency": rep.read_efficiency,
        "regime_warnings": warnings,
    }
    return report, warnings, None


def _scenario_rates(cfg, root, p):
    states = _read(cfg, "states", p)
    n_atoms = states["atom_count"]
    unit = p.mu / p.excited_lifetime
    rates = {name: emission_rate(named_state(name, n_atoms), p) / unit
             for name in states["names"]}
    return {"atom_count": n_atoms, "rates_in_units_of_mu_over_t1": rates}, [], None


def _scenario_schedule(cfg, root, p):
    write, read = _plans(_read(cfg, "schedule", p), False)
    wrep = verify_plan(write)
    rrep = _verify_read(read, write, wrep)
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


def _scenario_threelevel(cfg, root, p):
    three = _read(cfg, "threelevel", p)
    drive = DriveConfig(g_a=three["g_a"], g_b=three["g_b"], alpha=three["alpha"])
    state = ThreeLevelState(three["initial"])
    out = pulse_outcome(state, drive)
    return {
        "rabi_rate": drive.rabi_rate,
        "effective_rate": drive.effective_rate,
        "transfer_time": transfer_time(drive),
        "final_populations": list(out.populations),
        "failure_probability": failure_probability(state.amplitudes[0], drive),
    }, [], None


# Each scenario maps (config, read root fields, derived parameters) to (report,
# warnings, table); table is None or a callable that formats the TSV table.
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
        cfg = dict(cfg, ensemble={
            "wavelength": 606e-9, "sample_length": 5e-3,
            "excited_lifetime": 164e-6, "beam_diameter": 100e-6,
            "atom_count": 10 ** 7,
        })
    try:
        p = derive_params(EnsembleInput(**_read(cfg, "ensemble")))
    except DomainError as exc:
        raise ConfigError(f"bad ensemble block: {exc}") from exc
    return _SCENARIOS[name](cfg, _read(cfg, "", p), p)


def _apply_sweep(cfg: dict, spec: str) -> list[tuple[float, dict]]:
    """(value, config) for each value of the sweep ``PATH=V1,V2,...``; PATH
    names a config field."""
    path, _, values = spec.partition("=")
    block, _, key = path.strip().rpartition(".")
    if key not in _KEYS.get(block, ()):
        raise ConfigError(f"unknown field '{path.strip()}'")
    try:
        vals = [float(v) for v in values.split(",") if v]
    except ValueError as exc:
        raise ConfigError(f"bad sweep spec: {exc}") from exc
    if not vals or not all(map(math.isfinite, vals)):
        raise ConfigError(f"bad sweep spec: want finite values, got {values!r}")
    node = _block(cfg, block)
    return [(v, {**cfg, block: {**node, key: v}} if block else {**cfg, key: v})
            for v in vals]


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


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
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

    named = cfg.get("scenario")
    scenario = args.scenario or named
    if not isinstance(named, (str, type(None))) or scenario not in _SCENARIOS:
        print(f"error: scenario must be one of {', '.join(_SCENARIOS)}",
              file=sys.stderr)
        return 2

    reports = []
    all_warnings = []
    table = None
    try:
        runs = _apply_sweep(cfg, args.sweep) if args.sweep else [(None, cfg)]
        for value, one_cfg in runs:
            report, warnings, t = _run_scenario(scenario, one_cfg)
            all_warnings.extend(warnings)
            if t is not None:
                table = t
            if value is not None:
                report = {"sweep_value": value, **report}
            reports.append(report)
        text = emit_json({"scenario": scenario,
                          "report": reports[0] if len(runs) == 1 else reports})
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

    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if table is not None and args.table_out:
            with open(args.table_out, "w", encoding="utf-8") as fh:
                fh.write(table())
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
