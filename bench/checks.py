"""Closed forms and output checkers for the benchmark.

Everything here is computed apart from the program: no function of the
``subradiance`` package is called.  Each ``check_*`` function returns a
list of problems; an empty list means the output is correct.

Units: times are in units of tau_R, rates in units of mu/T1, and packet
amplitudes are photon amplitudes (a bin of amplitude a carries |a|^2
photons).
"""

from __future__ import annotations

import json
import math

# Absolute tolerance on amplitudes, efficiencies and rates.  The program's
# RK4 write on piecewise-constant or exponential input matches the closed
# forms to about 1e-12, and CLI reports round floats to 12 digits.
AMP_TOL = 1e-9
# Tolerance on recall fidelity.  The program's target packet takes each
# bin's phase from the mean of the bin's node samples plus one boundary node
# that can hold the neighbouring bin's value: the next bin's first node for
# piecewise-constant input, the early bin's last value for a time-bin qubit
# when the grid time of the boundary node rounds below it.  That biases the
# phase by about 1/m for a bin of m grid steps and costs at most about
# 1/m^2 = 2.5e-5 of fidelity at m >= 200.  0.25, the empty-interior-bin
# fault, is far outside.
FIDELITY_TOL = 1e-4


def _close(problems: list[str], what: str, got, want, tol: float = AMP_TOL) -> None:
    """Absolute comparison for values of order one or below, relative
    above; None must match None."""
    if got is None or want is None:
        if got is not want:
            problems.append(f"{what}: got {got!r}, want {want!r}")
        return
    if not abs(got - want) <= tol * max(1.0, abs(want)):
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _close_rel(problems: list[str], what: str, got, want, tol: float = AMP_TOL) -> None:
    """Relative comparison, for SI quantities far from one."""
    if got is None or want is None:
        _close(problems, what, got, want)
    elif not abs(got - want) <= tol * abs(want):
        problems.append(f"{what}: got {got!r}, want {want!r}")


# ---------------------------------------------------------------------------
# Ensemble parameters
# ---------------------------------------------------------------------------

def ensemble_params(ens: dict) -> dict:
    """mu, tau_E, tau_R, tau_c, Fresnel number and T2* from a raw ensemble
    block (SI units), by the defining relations."""
    lam, length, t1 = ens["wavelength"], ens["sample_length"], ens["excited_lifetime"]
    area = ens.get("cross_section") or math.pi * ens["beam_diameter"] ** 2 / 4.0
    n_atoms = ens.get("atom_count") or ens["number_density"] * area * length
    mu = 3.0 * lam ** 2 / (8.0 * math.pi * area)
    tau_e = length / 299_792_458.0
    tau_r = t1 / (n_atoms * mu)
    gamma_inh = ens.get("inhomogeneous_linewidth")
    return {"mu": mu, "tau_E": tau_e, "tau_R": tau_r,
            "tau_c": math.sqrt(tau_r * tau_e), "fresnel": area / (length * lam),
            "t2_star": 1.0 / (math.pi * gamma_inh) if gamma_inh else None,
            "area": area, "atom_count": n_atoms}


def capture_optimum() -> tuple[float, float]:
    """Root x of (1 + x) e^{-x/2} = 1 by Newton's method, and the peak
    captured amplitude 2 (1 - e^{-x/2}) / sqrt(x) there."""
    x = 2.5
    for _ in range(50):
        f = (1.0 + x) * math.exp(-x / 2.0) - 1.0
        df = math.exp(-x / 2.0) * (1.0 - (1.0 + x) / 2.0)
        step = f / df
        x -= step
        if abs(step) < 1e-15:
            break
    return x, 2.0 * (1.0 - math.exp(-x / 2.0)) / math.sqrt(x)


# ---------------------------------------------------------------------------
# Store and recall
# ---------------------------------------------------------------------------

def rect_capture_gain(x: float) -> float:
    """|c| at the end of a rectangular bin of duration x tau_R per unit
    photon amplitude in the bin: 2 sqrt(1/x) (1 - e^{-x/2})."""
    return 2.0 * (1.0 - math.exp(-x / 2.0)) / math.sqrt(x)


def emit_gain(x: float) -> float:
    """Share of the active amplitude emitted in a read slot of x tau_R."""
    return math.sqrt(1.0 - math.exp(-x))


def expected_recall(amps, cap_gain: float, out_gain: float, reversed_: bool,
                    success: float = 1.0, loss: float = 0.0,
                    read_start: float | None = None) -> dict:
    """Closed-form store/recall of bins with photon amplitudes ``amps``.

    Bin n (1-based) is captured at the end of bin n with amplitude
    -a_n * cap_gain and read in slot k_n (1-based); it emits
    a_n * cap_gain * out_gain * s^(bins - n + 1 + k_n) * e^{-loss (t_read - n)/2}.
    ``loss`` is the loss rate times the bin duration; times are in bins,
    and reading starts at ``read_start`` (default bins + 1, where the write
    grid ends).  Exactly empty bins emit nothing and are not reported.
    """
    bins = len(amps)
    if read_start is None:
        read_start = bins + 1
    order = [n for n in (range(bins, 0, -1) if reversed_ else range(1, bins + 1))
             if amps[n - 1] != 0]
    captured = {n: -amps[n - 1] * cap_gain * success ** (bins - n + 1)
                * math.exp(-loss * (read_start - n) / 2.0)
                for n in range(1, bins + 1)}
    slot = {n: k for k, n in enumerate(
        range(bins, 0, -1) if reversed_ else range(1, bins + 1), start=1)}
    factor = {n: success ** (bins - n + 1 + slot[n])
              * math.exp(-loss * (read_start + slot[n] - 1 - n) / 2.0)
              for n in order}
    emitted = [(n, amps[n - 1] * cap_gain * out_gain * factor[n]) for n in order]
    in_norm = sum(abs(a) ** 2 for a in amps)
    stored = sum(abs(c) ** 2 for c in captured.values())
    out = sum(abs(e) ** 2 for _, e in emitted)
    weights = {n: abs(amps[n - 1]) ** 2 for n in order}
    w_sum = sum(weights.values())
    wf = sum(weights[n] * factor[n] for n in order)
    wf2 = sum(weights[n] * factor[n] ** 2 for n in order)
    fidelity = wf ** 2 / (w_sum * wf2) if order else None
    bin_err = (max(abs(weights[n] * factor[n] ** 2 / wf2 - weights[n] / w_sum)
                   for n in order) if order else None)
    return {"order": order, "captured": captured, "emitted": emitted,
            "write_efficiency": stored / in_norm,
            "read_efficiency": out / stored,
            "total_efficiency": out / in_norm,
            "input_norm": in_norm, "fidelity": fidelity,
            "bin_probability_error": bin_err}


def expected_qubit(alpha: complex, beta: complex, separation: float,
                   reversed_: bool, success: float = 1.0) -> dict:
    """Closed-form recall of alpha|early> + beta|late> built from rising
    exponentials over bins of ``separation`` tau_R: each bin holds
    (1 - e^{-S}) of its weight, is captured with gain sqrt(1 - e^{-S}) and
    read in a slot of S, so total efficiency is (1 - e^{-S})^2 times the
    pulse factors."""
    keep = 1.0 - math.exp(-separation)
    root = math.sqrt(keep)
    return expected_recall([alpha * root, beta * root], root, root, reversed_,
                           success, read_start=2)


def check_recall(report, want: dict) -> list[str]:
    """Compare a StorageReport with ``expected_recall`` output: emission
    order, per-bin captured and emitted amplitudes, efficiencies, fidelity
    and bin probability error."""
    problems: list[str] = []
    order = list(report.emitted)
    if order != want["order"]:
        problems.append(f"emission order {order} != {want['order']}")
    for n, amp in want["emitted"]:
        if n in report.emitted:
            _close(problems, f"emitted[{n}]", report.emitted[n], amp)
    for n, amp in want["captured"].items():
        _close(problems, f"captured[{n}]", report.captured.get(n), amp)
    for key in ("input_norm", "write_efficiency", "read_efficiency",
                "total_efficiency", "bin_probability_error"):
        _close(problems, key, getattr(report, key), want[key])
    _close(problems, "fidelity", report.fidelity, want["fidelity"], FIDELITY_TOL)
    return problems


# ---------------------------------------------------------------------------
# Collective emission rates
# ---------------------------------------------------------------------------

def signed_dicke_rate(n: int, plus: int, minus: int) -> float:
    """Rate, in mu/T1, of the n-excitation symmetric state with the excited
    amplitude of ``minus`` atoms sign-flipped: sum over the (n-1)-atom
    remainders B of (S - sum_B s)^2 / C(N, n), with S = plus - minus."""
    total = plus - minus
    acc = 0
    for p_ in range(n):
        m_ = n - 1 - p_
        acc += math.comb(plus, p_) * math.comb(minus, m_) * (total - p_ + m_) ** 2
    return acc / math.comb(plus + minus, n)


def compositions(n: int, caps) -> int:
    """Number of occupation tuples with sum n and entry P at most caps[P]."""
    ways = [1] + [0] * n
    for cap in caps:
        ways = [sum(ways[k - j] for j in range(min(cap, k) + 1)) for k in range(n + 1)]
    return ways[n]


def check_partitioned(n: int, sizes, signs, amplitudes: dict, sym_rate: float,
                      signed_rate: float, oracle_rate: float | None) -> list[str]:
    """Check a partitioned symmetric state and its rates (in mu/T1).

    Amplitudes must be the hypergeometric weights over the compositions of
    n, the norm 1, the symmetric rate n(N - n + 1), the sign-flipped rate
    the closed form (for n = 1, (sum_P s_P N_P)^2 / N), and the full-basis
    oracle rate, when given, the same to 1e-9.
    """
    problems: list[str] = []
    n_atoms = sum(sizes)
    kept = compositions(n, sizes)
    if len(amplitudes) != kept:
        problems.append(f"{len(amplitudes)} occupation tuples, want {kept}")
    total = math.comb(n_atoms, n)
    for occ, amp in amplitudes.items():
        want = math.sqrt(math.prod(math.comb(s, k) for s, k in zip(sizes, occ)) / total)
        if sum(occ) != n or abs(amp - want) > AMP_TOL:
            problems.append(f"amplitude {amp!r} on {occ}, want {want!r}")
            break
    _close(problems, "norm", math.sqrt(sum(abs(a) ** 2 for a in amplitudes.values())), 1.0)
    _close(problems, "symmetric rate", sym_rate, n * (n_atoms - n + 1))
    minus = sum(s for s, g in zip(sizes, signs) if g < 0)
    want = signed_dicke_rate(n, n_atoms - minus, minus)
    if n == 1:
        want = sum(s * g for s, g in zip(sizes, signs)) ** 2 / n_atoms
    _close(problems, "signed rate", signed_rate, want)
    if oracle_rate is not None:
        _close(problems, "oracle rate", oracle_rate, signed_rate)
    return problems


def named_state_rates(n_atoms: int) -> dict[str, float]:
    """Rates, in mu/T1, of the CLI's named states over N atoms."""
    half = n_atoms // 2
    return {
        "one_sym": signed_dicke_rate(1, n_atoms, 0),
        "two_sym": signed_dicke_rate(2, n_atoms, 0),
        "one_AminusB": signed_dicke_rate(1, half, half),
        "two_AminusB": signed_dicke_rate(2, half, half),
        # (|2,0> - |0,2>)/sqrt2 over halves: each term lowers to an
        # orthogonal one-excitation state of rate 2 (N/2 - 1)
        "two_prime": 2.0 * (half - 1),
        # the same with two_AminusB over each half of N/2 atoms
        "two_ABCD": signed_dicke_rate(2, half // 2, half // 2),
    }


# ---------------------------------------------------------------------------
# Three-level transfer pulse
# ---------------------------------------------------------------------------

def transfer_pulse(g_a: float, g_b: float, alpha: complex, initial) -> dict:
    """Closed form of one pi/Omega transfer pulse.  H has the null vector
    v = (h*, 0, -g_a)/Omega with h = g_b alpha and eigenvalues +-Omega, so
    after t = pi/Omega the propagator is 2 v v^dagger - 1."""
    h = g_b * alpha
    omega = math.hypot(g_a, abs(h))
    v = (h.conjugate() / omega, 0.0, -g_a / omega)
    proj = sum(vi.conjugate() * ci for vi, ci in zip(v, initial))
    final = [2.0 * vi * proj - ci for vi, ci in zip(v, initial)]
    rabi = 2.0 * g_b * abs(alpha)
    c0 = abs(initial[0]) ** 2
    return {"rabi_rate": rabi, "effective_rate": omega,
            "transfer_time": math.pi / omega,
            "final_populations": [abs(c) ** 2 for c in final],
            "failure_probability":
                c0 * (g_a * rabi / (g_a ** 2 + (rabi / 2.0) ** 2)) ** 2}


# ---------------------------------------------------------------------------
# CLI reports
# ---------------------------------------------------------------------------

def _cx(d) -> complex:
    return complex(d["re"], d["im"])


def _rows_orthogonal(rows: list[list[int]]) -> list[str]:
    problems = []
    for i, a in enumerate(rows):
        if len(set(a)) == 1:
            problems.append(f"stored row {i + 1} is superradiant")
        for j in range(i + 1, len(rows)):
            dot = sum(x * y for x, y in zip(a, rows[j]))
            if dot:
                problems.append(f"stored rows {i + 1} and {j + 1} have dot {dot}")
    return problems


def _signs(text: str) -> list[int]:
    return [1 if ch == "+" else -1 for ch in text]


def _downstream(signs: list[int]) -> list[int]:
    out, acc = [], 1
    for s in reversed(signs):
        acc *= s
        out.append(acc)
    return out[::-1]


def _check_params(cfg, report, ens) -> list[str]:
    problems: list[str] = []
    got = report["parameters"]
    for key, want in (("coupling_mu", ens["mu"]), ("transit_time_tau_E", ens["tau_E"]),
                      ("collective_lifetime_tau_R", ens["tau_R"]),
                      ("crossover_time_tau_c", ens["tau_c"]),
                      ("fresnel_number", ens["fresnel"]),
                      ("dephasing_time_t2_star", ens["t2_star"]),
                      ("atom_count", ens["atom_count"])):
        _close_rel(problems, key, got[key], want)
    x, amp = capture_optimum()
    cap = report["optimal_capture"]
    _close(problems, "capture duration", cap["duration"] / ens["tau_R"], x)
    _close(problems, "capture amplitude", cap["amplitude"], amp)
    _close(problems, "capture efficiency", cap["efficiency"], amp ** 2)
    if "target_tau_R" in cfg:
        target = cfg["target_tau_R"]
        want = (cfg["ensemble"]["excited_lifetime"] / (target * ens["mu"])
                / (ens["area"] * cfg["ensemble"]["sample_length"]))
        _close_rel(problems, "density for target", report["density_for_target_tau_R"], want)
    return problems


def _check_scatter(cfg, report, ens) -> list[str]:
    problems: list[str] = []
    x = float(cfg["input"]["duration"].split()[0])
    grid = float(cfg["input"]["grid_duration"].split()[0])
    peak = rect_capture_gain(x) ** 2
    _close(problems, "input_norm", report["input_norm"], 1.0)
    _close(problems, "peak_excitation", report["peak_excitation"], peak)
    final = peak * math.exp(-(grid - x))
    _close(problems, "final_excitation", report["final_excitation"], final)
    # photon budget: what is not left in the ensemble leaves forward
    _close(problems, "output_norm", report["output_norm"], 1.0 - final, 1e-6)
    return problems


def expected_cli_store(cfg) -> dict:
    blk = cfg["schedule"]
    bins = blk["bins"]
    x = float(blk["bin_duration"].split()[0])
    tau_r = ensemble_params(cfg["ensemble"])["tau_R"]
    return expected_recall(
        [1.0 / math.sqrt(bins)] * bins, rect_capture_gain(x), emit_gain(x),
        blk["time_reversed"], math.sqrt(1.0 - cfg.get("pulse_failure", 0.0)),
        cfg.get("loss_rate", 0.0) * x * tau_r)


def _check_store(cfg, report, ens) -> list[str]:
    problems: list[str] = []
    want = expected_cli_store(cfg)
    for key in ("write_efficiency", "read_efficiency", "total_efficiency",
                "bin_probability_error"):
        _close(problems, key, report[key], want[key])
    _close(problems, "fidelity", report["fidelity"], want["fidelity"], FIDELITY_TOL)
    for n, amp in want["emitted"]:
        _close(problems, f"emitted[{n}]", _cx(report["emitted"][str(n)]), amp)
    for n, amp in want["captured"].items():
        _close(problems, f"captured[{n}]", _cx(report["captured"][str(n)]), amp)
    if sorted(report["emitted"], key=int) != [str(n) for n in sorted(want["order"])]:
        problems.append(f"emitted bins {sorted(report['emitted'])}")
    return problems


def _check_qubit(cfg, report, ens) -> list[str]:
    problems: list[str] = []
    q = cfg["qubit"]
    want = expected_qubit(complex(q["alpha_re"], q["alpha_im"]),
                          complex(q["beta_re"], q["beta_im"]),
                          float(q["separation"].split()[0]), q["time_reversed"],
                          math.sqrt(1.0 - q.get("pulse_failure", 0.0)))
    for key in ("total_efficiency", "write_efficiency", "read_efficiency"):
        _close(problems, key, report[key], want[key])
    _close(problems, "fidelity", report["fidelity"], want["fidelity"], FIDELITY_TOL)
    return problems


def _check_rates(cfg, report, ens) -> list[str]:
    problems: list[str] = []
    n_atoms = cfg["states"]["atom_count"]
    want = named_state_rates(n_atoms)
    got = report["rates_in_units_of_mu_over_t1"]
    if sorted(got) != sorted(cfg["states"]["names"]):
        problems.append(f"rates for {sorted(got)}")
    for name in cfg["states"]["names"]:
        _close(problems, f"rate {name}", got.get(name), want[name])
    return problems


def _check_schedule(cfg, report, ens) -> list[str]:
    problems: list[str] = []
    blk = cfg["schedule"]
    parts, bins = blk["parts"], blk["bins"]
    if not (report["write_ok"] and report["read_ok"]) or report["violations"]:
        problems.append(f"plan verification failed: {report['violations']}")
    write = json.loads(report["write_plan"])
    read = json.loads(report["read_plan"])
    if blk["passive"]:
        # pattern k's downstream products are the active cumulative flip
        # product after k masks; bin n ends in D_bins * D_(n-1)
        down = [_downstream(_signs(e["mask"])) for e in write["events"]]
        if len(down) != bins + 1 or len(read["events"]) != bins:
            return problems + [f"{len(down)} write and {len(read['events'])} "
                               "read events"]
        rows = [[a * b for a, b in zip(down[bins], down[n - 1])]
                for n in range(1, bins + 1)]
        return problems + _rows_orthogonal(rows)
    rows = [_signs(report["stored_rows"][str(n)]) for n in range(1, bins + 1)]
    if any(len(r) != parts for r in rows):
        problems.append("stored row length != parts")
    problems += _rows_orthogonal(rows)
    # replay the read masks on the stored rows by the benchmark's own algebra
    order, live = [], {n: list(r) for n, r in enumerate(rows, start=1)}
    for e in read["events"]:
        m = _signs(e["mask"])
        for n in live:
            live[n] = [a * b for a, b in zip(live[n], m)]
        hot = [n for n, r in live.items() if len(set(r)) == 1]
        if len(hot) != 1:
            return problems + [f"read mask {e['mask']} activates {hot}"]
        order.append(hot[0])
        del live[hot[0]]
    want = list(range(bins, 0, -1)) if blk["time_reversed"] else list(range(1, bins + 1))
    if order != want or report["emission_order"] != want:
        problems.append(f"emission order {report['emission_order']} (replayed "
                        f"{order}), want {want}")
    return problems


def _check_threelevel(cfg, report, ens) -> list[str]:
    problems: list[str] = []
    blk = cfg["threelevel"]
    want = transfer_pulse(blk["g_a"], blk["g_b"], complex(blk["alpha_re"], blk["alpha_im"]),
                          [complex(a) for a in blk["initial"]])
    for key in ("rabi_rate", "effective_rate", "transfer_time", "failure_probability"):
        _close(problems, key, report[key], want[key])
    pops = report["final_populations"]
    _close(problems, "population sum", sum(pops), 1.0)
    for i, (got, exp) in enumerate(zip(pops, want["final_populations"])):
        _close(problems, f"population {i}", got, exp)
    return problems


_CLI_CHECKS = {"params": _check_params, "scatter": _check_scatter,
               "store": _check_store, "qubit": _check_qubit,
               "rates": _check_rates, "schedule": _check_schedule,
               "threelevel": _check_threelevel}


def _apply_sweep(cfg: dict, path: str, value: float) -> dict:
    out = json.loads(json.dumps(cfg))
    node = out
    keys = path.split(".")
    for k in keys[:-1]:
        node = node.setdefault(k, {})
    node[keys[-1]] = value
    return out


def check_cli(cfg: dict, sweep: tuple[str, list[float]] | None, code: int,
              text: str) -> list[str]:
    """Check one CLI run: exit code 0 and every report field against its
    closed form, once per sweep value when the run swept a key."""
    if code != 0:
        return [f"exit code {code}"]
    doc = json.loads(text)
    if doc["scenario"] != cfg["scenario"]:
        return [f"scenario {doc['scenario']!r}"]
    runs = [(None, cfg)]
    reports = [doc["report"]]
    if sweep is not None:
        path, values = sweep
        runs = [(v, _apply_sweep(cfg, path, v)) for v in values]
        reports = doc["report"]
        if len(reports) != len(runs):
            return [f"{len(reports)} sweep reports, want {len(runs)}"]
    problems: list[str] = []
    for (value, one), rep in zip(runs, reports):
        if value is not None and rep.get("sweep_value") != value:
            problems.append(f"sweep value {rep.get('sweep_value')!r} != {value!r}")
        ens = ensemble_params(one["ensemble"])
        problems += _CLI_CHECKS[one["scenario"]](one, rep, ens)
    return problems


def check_repeat(first: str, second: str) -> list[str]:
    """The same config must give byte-identical reports."""
    if first == second:
        return []
    at = next((i for i, (a, b) in enumerate(zip(first, second)) if a != b),
              min(len(first), len(second)))
    return [f"repeated report differs from the first at byte {at}"]
