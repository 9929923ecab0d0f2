"""Acceptance gate: eight end-to-end criteria plus figure trajectories.

Each test prints a single verdict line (visible in the pytest summary
thanks to -rP) and then asserts it, so a red run still shows which
criterion fell over and by how much.  Tolerances are part of the
contract; do not tighten or loosen them casually.
"""

import math
import time

import numpy as np

from isingring import (
    QuenchConfig,
    TwoSiteRDM,
    assemble_two_site,
    asymptotic_order_decay,
    c_expectations_series,
    compute_series,
    concurrence,
    evaluate_even,
    first_maximum,
    fit_exponential,
    longitudinal_magnetization,
    odd_rdm_entries,
    order_parameter_series,
    pauli_correlation,
    pfaffian_batch,
    plateau,
    quench_oracle,
    ring_hamiltonian,
    string_series,
    thermo_cxx,
    thermo_sz,
    two_site_rdm,
)
from isingring.cli import main as cli_main
from isingring.ed_oracle import expectation, parity_weights, string_x

RATE_CRIT = 4.0 / math.pi


def verdict(label, ok, details):
    status = "PASS" if ok else "FAIL"
    print(f"{label}: {status} ({details})")
    assert ok, f"{label} failed: {details}"


def rsquared(x, y, coeffs):
    fitted = np.polyval(coeffs, x)
    ss_res = np.sum((y - fitted) ** 2)
    ss_tot = np.sum((y - np.mean(y)) ** 2)
    return 1.0 - ss_res / ss_tot


def window_mask(times, lo, hi):
    return (times >= lo) & (times <= hi)


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    grid = np.linspace(0.0, 10.0, 50)
    worst = 0.0
    for n in (4, 6, 8, 10, 12):
        sites = tuple(range(1, n + 1))
        for g in (0.3, 0.5, 1.0, 1.5, 3.0):
            config = QuenchConfig(n, g, grid)
            series = compute_series(config)
            strings = string_series(config, sites)
            pairs = [config.amplitudes(float(t)) for t in grid]
            c12 = c_expectations_series(config.amplitudes(grid), n, (1, 2))
            oracle = quench_oracle(n, g)
            for i, t in enumerate(grid):
                state = oracle.state(float(t))
                ed_matrix = two_site_rdm(state, n)
                even, odd = pairs[i]
                ev = evaluate_even(even, odd, n)
                rho = assemble_two_site(ev, *odd_rdm_entries(*c12[i]))
                worst = max(worst, float(np.max(np.abs(rho.matrix - ed_matrix))))
                ed = TwoSiteRDM(ed_matrix)
                reduced = ed.reduce(1)
                refs = {
                    "sx": reduced.bloch[0],
                    "sy": reduced.bloch[1],
                    "sz": reduced.bloch[2],
                    "purity": reduced.purity(),
                    "czz": pauli_correlation(ed, "z", "z"),
                    "cxx": pauli_correlation(ed, "x", "x"),
                    "cxy": pauli_correlation(ed, "x", "y"),
                    "cxz": pauli_correlation(ed, "x", "z"),
                    "concurrence": concurrence(ed),
                }
                for name, ref in refs.items():
                    worst = max(worst, abs(series.column(name)[i] - ref))
                for j in sites:
                    ref = expectation(state, n, string_x(j)).real
                    worst = max(worst, abs(strings.column(f"x{j}")[i] - ref))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 120.0
    verdict("criterion 1", ok,
            f"max |fast - ED| = {worst:.2e} over 25 systems x 50 times "
            f"(tol 1e-8), runtime {elapsed:.1f} s (cap 120 s)")


def test_criterion_2_critical_decay_rate():
    grid = np.arange(4.0, 15.0 + 1e-9, 0.1)
    series = order_parameter_series(QuenchConfig(100, 1.0, grid))
    fit = fit_exponential(series.times, series.column("sx"), (4.0, 15.0))
    dev = abs(fit.rate - RATE_CRIT)
    verdict("criterion 2", dev <= 0.03,
            f"N=100 g=1 rate {fit.rate:.5f} vs 4/pi, |dev| = {dev:.1e} "
            f"(tol 0.03)")


def test_criterion_3_decay_rate_curve():
    grid = np.arange(10.0, 20.0 + 1e-9, 0.1)
    fields = np.round(np.arange(0.90, 1.0 + 1e-9, 0.005), 10)
    worst_rate_dev = 0.0
    critical_fit = None
    for g in fields:
        series = order_parameter_series(QuenchConfig(100, float(g), grid))
        fit = fit_exponential(series.times, series.column("sx"), (10.0, 20.0))
        rate_ref = asymptotic_order_decay(float(g))[1]
        worst_rate_dev = max(worst_rate_dev, abs(fit.rate - rate_ref))
        if g == 1.0:
            critical_fit = fit
    gap = abs(critical_fit.prefactor - 1.0 / math.sqrt(2.0))
    sigmas = gap / critical_fit.prefactor_err
    ok = worst_rate_dev <= 0.03 and sigmas > 5.0
    verdict("criterion 3", ok,
            f"21 fields, worst rate dev {worst_rate_dev:.2e} (tol 0.03); "
            f"A(1) = {critical_fit.prefactor:.4f} sits "
            f"{sigmas:.0f} stddev from the ordered-phase limit (need > 5)")


def test_criterion_4_string_operator_scaling():
    sites = tuple(range(2, 19, 2))
    grid = np.arange(0.0, 16.0 + 1e-9, 0.05)
    series = string_series(QuenchConfig(60, 1.0, grid), sites)
    times = series.times
    t_max = []
    peaks = []
    for j in sites:
        t_j, y_j = first_maximum(times, series.column(f"x{j}"), threshold=1e-4)
        t_max.append(t_j)
        peaks.append(y_j)
    j_arr = np.asarray(sites, dtype=float)
    lin = np.polyfit(j_arr, t_max, 1)
    r2_linear = rsquared(j_arr, np.asarray(t_max), lin)
    exp_fit = np.polyfit(j_arr, np.log(peaks), 1)
    r2_exp = rsquared(j_arr, np.log(peaks), exp_fit)
    # after the fronts pass, every string relaxes on the same exponential;
    # the usable window per j ends when the counter-propagating front has
    # wrapped around the ring, at t near (N - j)/4
    prefactors = []
    rates = []
    for j in sites:
        window = (j / 4.0 + 2.0, min((60.0 - j) / 4.0, 15.0))
        fit = fit_exponential(times, series.column(f"x{j}"), window)
        prefactors.append(fit.prefactor)
        rates.append(fit.rate)
    pre_dev = float(np.max(np.abs(np.asarray(prefactors) - 0.86)))
    rate_dev = float(np.max(np.abs(np.asarray(rates) - RATE_CRIT)))
    ok = (r2_linear >= 0.99 and r2_exp >= 0.99 and exp_fit[0] < 0
          and pre_dev <= 0.05 and rate_dev <= 0.05)
    verdict("criterion 4", ok,
            f"t_max linear R2 = {r2_linear:.5f} (need 0.99), first maxima "
            f"exponential R2 = {r2_exp:.5f} with slope {exp_fit[0]:.3f}; "
            f"collapse prefactor dev {pre_dev:.3f} (tol 0.05), "
            f"rate dev {rate_dev:.3f} (tol 0.05)")


def test_criterion_5_strong_field_plateaus():
    grid = np.arange(0.0, 25.0 + 1e-9, 0.1)
    series = compute_series(QuenchConfig(60, 100.0, grid))
    times = series.times
    main_window = window_mask(times, 2.0, 25.0)
    cxx_mean = float(np.mean(series.column("cxx")[main_window]))
    czz_mean = float(np.mean(series.column("czz")[main_window]))
    purity_mean = float(np.mean(series.column("purity")[main_window]))
    # the polarization components keep ringing a little right after the
    # quench, so the strict bound starts at t = 3 and the window mean
    # covers the rest
    late = window_mask(times, 3.0, 25.0)
    pol_mean = max(float(np.mean(np.abs(series.column(c)[main_window])))
                   for c in ("sx", "sy", "sz"))
    pol_max = max(float(np.max(np.abs(series.column(c)[late])))
                  for c in ("sx", "sy", "sz"))
    ok = (abs(cxx_mean - 0.50) <= 0.02 and abs(czz_mean + 0.25) <= 0.02
          and abs(purity_mean - 0.50) <= 0.02
          and pol_mean < 0.05 and pol_max < 0.05)
    verdict("criterion 5", ok,
            f"mean cxx {cxx_mean:.4f} (0.50 +- 0.02), "
            f"czz {czz_mean:.4f} (-0.25 +- 0.02), "
            f"purity {purity_mean:.4f} (0.50 +- 0.02); "
            f"polarization window mean {pol_mean:.4f}, "
            f"late max {pol_max:.4f} (both < 0.05)")


def test_criterion_6_entanglement_plateau():
    grid = np.arange(0.0, 23.0 + 1e-9, 0.1)
    series = compute_series(QuenchConfig(50, 100.0, grid))
    # the quasiparticle dip sits at t ~ N/4; the plateau is everything else
    mean, std = plateau(series.times, series.column("concurrence"),
                        (2.0, 23.0), exclude=(10.5, 14.5))
    dev = abs(mean - 0.125)
    verdict("criterion 6", dev <= 0.02,
            f"N=50 g=100 concurrence plateau {mean:.4f} +- {std:.4f}, "
            f"|dev from 0.125| = {dev:.4f} (tol 0.02)")


def test_criterion_7_thermodynamic_limit_consistency():
    grid = np.linspace(0.0, 5.0, 101)
    config = QuenchConfig(400, 2.0, grid)
    worst_sz = 0.0
    worst_cxx = 0.0
    for t in grid:
        even, odd = config.amplitudes(float(t))
        ev = evaluate_even(even, odd, 400)
        rho = assemble_two_site(ev, 0.0, 0.0)
        worst_sz = max(worst_sz, abs(ev.sz - thermo_sz(2.0, float(t))))
        worst_cxx = max(worst_cxx, abs(pauli_correlation(rho, "x", "x")
                                       - thermo_cxx(2.0, float(t))))
    ok = worst_sz <= 1e-3 and worst_cxx <= 1e-3
    verdict("criterion 7", ok,
            f"N=400 g=2: max |sz - quadrature| = {worst_sz:.2e}, "
            f"max |cxx - quadrature| = {worst_cxx:.2e} (tol 1e-3)")


def test_criterion_8_property_suites(tmp_path):
    checks = []
    rng = np.random.default_rng(11)

    # Pfaffian squared reproduces the determinant; at n=4 the Pfaffian
    # also matches its closed form a01 a23 - a02 a13 + a03 a12
    worst = 0.0
    for n in (4, 8, 12):
        stack = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
        stack = stack - stack.transpose(0, 2, 1)
        pf = pfaffian_batch(stack)
        det = np.linalg.det(stack)
        worst = max(worst, float(np.max(np.abs(pf ** 2 - det)
                                        / np.abs(det))))
        if n == 4:
            a = stack
            closed = (a[:, 0, 1] * a[:, 2, 3] - a[:, 0, 2] * a[:, 1, 3]
                      + a[:, 0, 3] * a[:, 1, 2])
            worst = max(worst, float(np.max(np.abs(pf - closed))))
    checks.append(("pf^2 = det", worst < 1e-10))

    # mode amplitudes stay on the unit circle per momentum
    worst = 0.0
    for n, g, t in ((8, 0.4, 1.3), (12, 1.0, 7.7), (10, 5.0, 0.2)):
        for amps in QuenchConfig(n, g, np.array([0.0, t])).amplitudes(t):
            norms = np.abs(amps.u) ** 2 + np.abs(amps.v) ** 2
            worst = max(worst, float(np.max(np.abs(norms - 1.0))))
    checks.append(("mode unitarity", worst < 1e-12))

    # a quench RDM is a physical state and traces down consistently
    config = QuenchConfig(8, 1.3, np.array([0.0, 2.1]))
    pair = config.amplitudes(2.1)
    (c1, c2), = c_expectations_series(pair, 8, (1, 2))
    ev = evaluate_even(*pair, 8)
    rho = assemble_two_site(ev, *odd_rdm_entries(c1, c2))
    eigs = np.linalg.eigvalsh(rho.matrix)
    sx, sy = longitudinal_magnetization(c1)
    one_site = 0.5 * np.array([[1.0 + ev.sz, sx - 1j * sy],
                               [sx + 1j * sy, 1.0 - ev.sz]])
    rdm_ok = (abs(np.trace(rho.matrix) - 1.0) < 1e-12
              and np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-12
              and eigs.min() > -1e-9
              and np.max(np.abs(rho.reduce(1).matrix - one_site)) < 1e-10
              and np.max(np.abs(rho.reduce(2).matrix - one_site)) < 1e-10)
    checks.append(("two-site RDM physicality and partial trace", rdm_ok))

    # concurrence is invariant under local unitary rotations
    base = concurrence(rho)
    worst = 0.0
    for _ in range(4):
        u1, _ = np.linalg.qr(rng.normal(size=(2, 2))
                             + 1j * rng.normal(size=(2, 2)))
        u2, _ = np.linalg.qr(rng.normal(size=(2, 2))
                             + 1j * rng.normal(size=(2, 2)))
        u = np.kron(u1, u2)
        rotated = TwoSiteRDM(u @ rho.matrix @ u.conj().T)
        worst = max(worst, abs(concurrence(rotated) - base))
    checks.append(("concurrence local-unitary invariance", worst < 1e-9))

    # dense evolution conserves norm, energy, and the parity split
    oracle = quench_oracle(6, 1.3)
    h = ring_hamiltonian(6, 1.3)
    worst = 0.0
    for t in (0.0, 0.7, 1.9, 3.3):
        state = oracle.state(t)
        worst = max(worst, abs(np.vdot(state, state).real - 1.0))
        worst = max(worst, abs(np.vdot(state, h @ state).real
                               - oracle.energy()))
        w_even, w_odd = parity_weights(state, 6)
        worst = max(worst, abs(w_even - 0.5), abs(w_odd - 0.5))
    checks.append(("ED norm/energy/parity conservation", worst < 1e-10))

    # identical run parameters give byte-identical CSV, pool or no pool
    files = []
    for name, extra in (("a.csv", ()), ("b.csv", ()),
                        ("c.csv", ("--workers", "2"))):
        out = tmp_path / name
        argv = ["evolve", "--n-sites", "6", "--g", "1.0", "--t-max", "2.0",
                "--dt", "0.1", "--out", str(out), *extra]
        assert cli_main(argv) == 0
        files.append(out.read_bytes())
    checks.append(("CSV byte determinism", files[0] == files[1] == files[2]))

    failed = [label for label, ok in checks if not ok]
    verdict("criterion 8", not failed,
            f"{len(checks)} property suites"
            + (f"; failing: {failed}" if failed else ", all green"))


def test_figure_trajectories(tmp_path):
    def emit(name, argv):
        out = tmp_path / name
        assert cli_main([*argv, "--out", str(out)]) == 0
        header = []
        rows = []
        with open(out) as fh:
            for line in fh:
                if line.startswith("#"):
                    continue
                if not header:
                    header = line.strip().split(",")
                else:
                    rows.append([float(v) for v in line.split(",")])
        data = np.asarray(rows)
        return {name: data[:, i] for i, name in enumerate(header)}

    # short and long strings through the critical point, revival at N/2
    strings = emit("strings_critical.csv",
                   ["string-op", "--n-sites", "60", "--g", "1.0",
                    "--t-max", "34", "--dt", "0.1", "--sites", "2,10"])
    t = strings["t"]
    quiet = strings["x10"][window_mask(t, 16.0, 24.0)]
    revival = strings["x10"][window_mask(t, 26.0, 34.0)]
    string_revival = (np.ptp(quiet) < 0.001 and np.ptp(revival) > 0.005)

    # single-site trajectories at criticality, transverse revival at N/2
    critical = emit("single_site_critical.csv",
                    ["evolve", "--n-sites", "60", "--g", "1.0",
                     "--t-max", "34", "--dt", "0.1"])
    t = critical["t"]
    flat = np.ptp(critical["sz"][window_mask(t, 20.0, 28.0)])
    revived = np.ptp(critical["sz"][window_mask(t, 28.0, 34.0)])
    sz_revival = flat < 0.03 and revived > 0.03

    # ordered-phase correlators: cxx holds a steady value near 0.875
    ordered = emit("correlators_ordered.csv",
                   ["evolve", "--n-sites", "60", "--g", "0.5",
                    "--t-max", "25", "--dt", "0.1"])
    t = ordered["t"]
    cxx_mean = float(np.mean(ordered["cxx"][window_mask(t, 5.0, 25.0)]))
    cxx_steady = abs(cxx_mean - 0.875) <= 0.03

    # order parameter around the transition: positive decay for g <= 1,
    # sign changes above it
    near = emit("order_parameter_near_critical.csv",
                ["sweep-g", "--n-sites", "60", "--g-list", "0.9,1.0,1.1",
                 "--t-max", "12", "--dt", "0.1"])
    sx_below = near["sx"][near["g"] == 0.9]
    sx_above = near["sx"][near["g"] == 1.1]
    order_signs = (sx_below.min() > 0.0 and sx_above.min() < -0.01)

    # entanglement generation: ordered-phase concurrence dies out, strong
    # fields sustain a plateau that grows with g
    conc = emit("concurrence_fields.csv",
                ["sweep-g", "--n-sites", "50", "--g-list", "0.5,2.0,10.0",
                 "--t-max", "15", "--dt", "0.1"])
    late = conc["t"] >= 5.0
    c_ordered = conc["concurrence"][late & (conc["g"] == 0.5)]
    c_mid = conc["concurrence"][late & (conc["g"] == 2.0)]
    c_strong = conc["concurrence"][late & (conc["g"] == 10.0)]
    plateaus = (c_ordered.max() < 1e-6
                and c_mid.min() > 0.01
                and c_strong.min() > c_mid.min())

    ok = (string_revival and sz_revival and cxx_steady and order_signs
          and plateaus)
    verdict("figure trajectories", ok,
            f"string revival {string_revival}, sz revival {sz_revival}, "
            f"ordered cxx mean {cxx_mean:.4f} (0.875 +- 0.03), "
            f"order-parameter signs {order_signs}, "
            f"concurrence plateaus {plateaus}")
