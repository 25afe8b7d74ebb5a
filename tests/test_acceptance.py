"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single pass/fail line (run with ``pytest -s tests/test_acceptance.py``
to see them).  Desk scale: dt = 1e-4 grids for the pathwise estimator
criteria; the Monte Carlo martingale suites run on coarser grids sized so the
whole suite stays within a laptop-minutes budget (discretization bias there
is an order of magnitude below the Monte Carlo standard errors).
"""

import json
from dataclasses import replace

import numpy as np

from dirichlet_reg import (
    BrownianMotion,
    CadlagPath,
    CharacteristicsModel,
    Composite,
    CompoundPoisson,
    Decomposition,
    DiscreteAtoms,
    ExponentGrid,
    FractionalBrownianMotion,
    GaussianJumps,
    GriddedDensity,
    LevyJumpDiffusion,
    SeedSpec,
    TimeGrid,
    Triplet1D,
    UniformJumps,
    WeightedAtoms,
    combine,
    continuous_bracket_check,
    convert_truncation,
    covariation_eps,
    damped_sine,
    decompose,
    default_schedule,
    drift_bracket_check,
    exp_tanh,
    forward_integral_eps,
    known_characteristics,
    martingale_mean_test,
    phi_w,
    pure_jump_covariation_check,
    qv_decompose,
    recover_triplet,
    residual_ensemble,
    semimartingale_residual,
    simulate_path,
    smooth_clip_truncation,
    smooth_map_cross_check,
    smooth_map_qv_check,
    standard_truncation,
)
from dirichlet_reg.levyexponent import atom_mass

STD = standard_truncation()
DESK = TimeGrid(1.0, 10_000)  # dt = 1e-4

JUMP_LAW = DiscreteAtoms((1.0, -1.0), (0.5, 0.5))
COMPOSITE = Composite(
    (
        BrownianMotion(1.0),
        FractionalBrownianMotion(0.7, 0.5),
        CompoundPoisson(1.0, DiscreteAtoms((0.5, -0.5), (0.5, 0.5))),
    )
)


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_exact_step_paths():
    grid = DESK
    jumps_x = {1000: 1.5, 4000: -2.0, 8000: 0.5}
    jumps_y = {1000: 2.0, 4000: 1.0, 6500: 3.0}

    def step(jumps):
        values = np.zeros(grid.n_nodes)
        for i, s in jumps.items():
            values[i:] += s
        return CadlagPath.from_jumps(grid, values, jumps)

    X, Y = step(jumps_x), step(jumps_y)
    expected = 1.5 * 2.0 + (-2.0) * 1.0
    worst = 0.0
    for m in (1, 4, 32, 128):  # eps up to 128*dt, still below the jump gap
        got = covariation_eps(X, Y, m * grid.dt)[-1]
        worst = max(worst, abs(got - expected))
    dec = qv_decompose(X, default_schedule(grid))
    jump_sum = np.cumsum(X.jumps * X.jumps)
    worst_qv = max(
        float(np.max(np.abs(dec.continuous))),
        float(np.max(np.abs(dec.jump - jump_sum))),
    )
    ok = worst <= 1e-12 and worst_qv <= 1e-12
    _verdict(
        "step-path exactness",
        ok,
        f"covariation error {worst:.2e}, split error {worst_qv:.2e} (tol 1e-12)",
    )


def test_criterion_2_semimartingale_consistency():
    grid = DESK
    eps = 1e-3
    ito_errs, bracket_sups = [], []
    for i in range(100):
        W = simulate_path(BrownianMotion(1.0), grid, SeedSpec(42, i))
        fwd = forward_integral_eps(W, W, eps)
        ito_errs.append(abs(fwd[-1] - (W.values[-1] ** 2 - 1.0) / 2.0))
        qv = covariation_eps(W, W, eps)
        bracket_sups.append(float(np.max(np.abs(qv - grid.times()))))
    med_ito = float(np.median(ito_errs))
    med_sup = float(np.median(bracket_sups))
    ok = med_ito < 0.05 and med_sup < 0.05
    _verdict(
        "semimartingale consistency",
        ok,
        f"median ito-integral error {med_ito:.4f}, median bracket sup {med_sup:.4f} (tol 0.05)",
    )


def test_criterion_3_pure_jump_covariation():
    grid = DESK
    sched = default_schedule(grid)
    sups = []
    for i in range(100):
        Y = simulate_path(CompoundPoisson(1.0, JUMP_LAW), grid, SeedSpec(1001, i))
        Zb = simulate_path(BrownianMotion(1.0), grid, SeedSpec(1002, i))
        Zc = simulate_path(CompoundPoisson(1.0, JUMP_LAW), grid, SeedSpec(1003, i))
        rep = pure_jump_covariation_check(Y, combine(1.0, Zb, 1.0, Zc), sched)
        assert rep.precondition_ok
        sups.append(rep.sup_distance)
    med = float(np.median(sups))
    _verdict(
        "pure-jump covariation identity",
        med < 0.05,
        f"median sup-distance {med:.4f} (tol 0.05)",
    )


def test_criterion_4_c1_stability():
    grid = DESK
    sched = default_schedule(grid)
    sech2 = lambda x: 1.0 - np.tanh(x) ** 2
    sups_sin, sups_two = [], []
    for i in range(100):
        W = simulate_path(BrownianMotion(1.0), grid, SeedSpec(2001, i))
        sups_sin.append(smooth_map_qv_check(W, np.sin, np.cos, sched).sup_distance)
        cp = simulate_path(CompoundPoisson(1.0, JUMP_LAW), grid, SeedSpec(2002, i))
        Z = combine(1.0, W, 1.0, cp)
        sups_two.append(
            smooth_map_cross_check(W, np.sin, np.cos, Z, np.tanh, sech2, sched).sup_distance
        )
    med_sin, med_two = float(np.median(sups_sin)), float(np.median(sups_two))
    ok = med_sin < 0.08 and med_two < 0.1
    _verdict(
        "C1 bracket stability",
        ok,
        f"sin median {med_sin:.4f} (tol 0.08), two-function median {med_two:.4f} (tol 0.1)",
    )


def test_criterion_5_drift_bracket_identities():
    grid = DESK
    sched = default_schedule(grid)

    levy_models = {
        "brownian": BrownianMotion(1.0),
        "compound-poisson": CompoundPoisson(1.0, DiscreteAtoms((2.0, -2.0), (0.5, 0.5))),
        "jump-diffusion": LevyJumpDiffusion(0.5, 1.0, 2.0, UniformJumps(-0.5, 0.5)),
    }
    levy_ok, details = True, []
    for name, model in levy_models.items():
        X = simulate_path(model, grid, SeedSpec(501, 0))
        dec = decompose(X, model, STD)
        rep = drift_bracket_check(X, dec, model, STD, sched)
        lhs_sup = float(np.max(np.abs(rep.lhs)))
        rhs_sup = float(np.max(np.abs(rep.rhs)))
        bound = 2.0 * rep.error_estimate
        levy_ok &= lhs_sup <= bound and rhs_sup <= bound
        details.append(f"{name} lhs {lhs_sup:.4f}/rhs {rhs_sup:.4f} vs 2err {bound:.4f}")

    sups = []
    for i in range(50):
        X = simulate_path(COMPOSITE, grid, SeedSpec(502, i))
        dec = decompose(X, COMPOSITE, STD)
        sups.append(continuous_bracket_check(X, dec, sched).sup_distance)
    med = float(np.median(sups))

    xc = simulate_path(BrownianMotion(1.0), grid, SeedSpec(503, 0))
    bk = simulate_path(BrownianMotion(1.0), grid, SeedSpec(504, 0))
    X = combine(1.0, xc, 1.0, bk)
    dec = Decomposition(
        continuous=xc,
        compensated_jumps=CadlagPath(grid, np.zeros(grid.n_nodes)),
        drift=bk,
        large_jumps=CadlagPath(grid, np.zeros(grid.n_nodes)),
        reconstruction_error=0.0,
    )
    rhs = drift_bracket_check(X, dec, CharacteristicsModel(truncation=STD), STD, sched).rhs
    synth_err = float(np.max(np.abs(rhs - grid.times())))

    ok = levy_ok and med < 0.05 and synth_err < 0.05
    _verdict(
        "drift bracket identities",
        ok,
        "; ".join(details)
        + f"; composite split median {med:.4f} (tol 0.05)"
        + f"; synthetic injected bracket error {synth_err:.4f} (tol 0.05)",
    )


# -- martingale residual suite ----------------------------------------------

RESIDUAL_COMBOS = [
    ("brownian", BrownianMotion(1.0)),
    ("compound-poisson", CompoundPoisson(1.0, DiscreteAtoms((2.0, -2.0), (0.5, 0.5)))),
    ("jump-diffusion", LevyJumpDiffusion(0.3, 1.0, 2.0, GaussianJumps(0.0, 0.3))),
    ("composite", COMPOSITE),
]
RESIDUAL_FUNCTIONS = [exp_tanh(), damped_sine()]


def _suite_stats(grid, master_seed, n_paths):
    """All z statistics of the 4 models x 2 functions residual suite."""
    stats = {}
    for mname, model in RESIDUAL_COMBOS:
        for F in RESIDUAL_FUNCTIONS:
            ens = residual_ensemble(model, grid, STD, F, master_seed, n_paths)
            rep = martingale_mean_test(ens)
            zs = list(rep.zscores) + [o.z for o in rep.orthogonality]
            stats[f"{mname}/{F.name}"] = zs
    return stats


def test_criterion_6_martingale_residual_suite():
    grid = TimeGrid(1.0, 512)
    stats = _suite_stats(grid, master_seed=606, n_paths=50_000)
    worst = max(max(abs(z) for z in zs) for zs in stats.values())
    main_ok = worst <= 3.0

    # calibration: pooled statistic pass rate over 20 master seeds
    cal_grid = TimeGrid(1.0, 256)
    total = passed = 0
    for seed in range(3000, 3020):
        for zs in _suite_stats(cal_grid, seed, n_paths=2000).values():
            total += len(zs)
            passed += sum(abs(z) <= 3.0 for z in zs)
    rate = passed / total

    # negative control: the drift 1.0 * t added to every residual must fail loudly
    ens = residual_ensemble(BrownianMotion(1.0), grid, STD, exp_tanh(), 606, 10_000)
    drifted = {t: r + 1.0 * grid.times()[grid.index_of(t)] for t, r in ens.residual_at.items()}
    bad = martingale_mean_test(replace(ens, residual_at=drifted))
    control_ok = all(abs(z) > 3.0 for z in bad.zscores)

    ok = main_ok and rate >= 0.95 and control_ok
    _verdict(
        "martingale residual suite",
        ok,
        f"worst |z| {worst:.2f} over {sum(len(v) for v in stats.values())} statistics "
        f"at N=50000; calibration pass rate {rate:.3f} over 20 seeds (need >= 0.95); "
        f"negative control min |z| {min(abs(z) for z in bad.zscores):.1f} (> 3)",
    )


def test_criterion_7_truncation_invariance():
    grid = DESK
    smooth = smooth_clip_truncation()
    models = [
        CompoundPoisson(1.0, DiscreteAtoms((2.0, -2.0), (0.5, 0.5))),
        LevyJumpDiffusion(0.3, 1.0, 2.0, GaussianJumps(0.0, 0.3)),
        LevyJumpDiffusion(0.3, 1.0, 2.0, UniformJumps(0.2, 1.8)),  # asymmetric law
    ]
    worst = 0.0
    for j, model in enumerate(models):
        X = simulate_path(model, grid, SeedSpec(707, j))
        base = known_characteristics(model, STD)
        conv = convert_truncation(model, STD, smooth)
        r_std = semimartingale_residual(X, base, STD, exp_tanh())
        r_sm = semimartingale_residual(X, conv, smooth, exp_tanh())
        worst = max(worst, float(np.max(np.abs(r_std.values - r_sm.values))))
    _verdict(
        "truncation invariance",
        worst <= 1e-8,
        f"worst nodewise disagreement {worst:.2e} (tol 1e-8)",
    )


def test_criterion_8_exponent_round_trip():
    xs = ExponentGrid.symmetric_grid(4.0, 4001)
    gauss = GriddedDensity(
        xs, 2.0 * np.exp(-(xs**2) / (2 * 0.25**2)) / (0.25 * np.sqrt(2 * np.pi))
    )
    tri = Triplet1D(0.5, 1.0, gauss, STD)
    g = ExponentGrid.from_triplet(tri, u_max=40.0, m=2048)
    rec = recover_triplet(g, w=2.0)
    b_rel = abs(rec.b - 0.5) / 0.5
    c_rel = abs(rec.c - 1.0) / 1.0
    win = (np.abs(rec.lam.xs) >= 0.05) & (np.abs(rec.lam.xs) <= 1.5)
    true = 2.0 * np.exp(-rec.lam.xs**2 / (2 * 0.25**2)) / (0.25 * np.sqrt(2 * np.pi))
    l1_rel = float(
        np.trapezoid(np.abs(rec.lam.density - true)[win], rec.lam.xs[win])
        / np.trapezoid(np.abs(true)[win], rec.lam.xs[win])
    )
    c_w3 = recover_triplet(g, w=3.0).c
    w_rel = abs(c_w3 - rec.c) / abs(rec.c)

    atoms = Triplet1D(
        0.0, 0.0, WeightedAtoms(np.array([0.5, -0.8]), np.array([1.0, -0.5])), STD
    )
    g_a = ExponentGrid.from_triplet(atoms, u_max=40.0, m=2048)
    rec_a = recover_triplet(g_a, w=2.0)
    atom_errs = [
        abs(atom_mass(rec_a, 0.5) - 1.0) / 1.0,
        abs(atom_mass(rec_a, -0.8) - (-0.5)) / 0.5,
    ]

    drift_grid = ExponentGrid.from_triplet(Triplet1D(0.7, 0.0, None, STD), 40.0, 2048)
    drift_sup = float(
        np.max(np.abs(phi_w(drift_grid, 2.0, np.linspace(-30.0, 30.0, 201))))
    )

    ok = (
        b_rel < 0.05
        and c_rel < 0.05
        and l1_rel < 0.05
        and w_rel < 0.02
        and max(atom_errs) < 0.05
        and drift_sup < 1e-10
    )
    _verdict(
        "exponent round trip",
        ok,
        f"b rel {b_rel:.3f}, c rel {c_rel:.3f}, lambda L1 rel {l1_rel:.3f} (tol 0.05); "
        f"c across w {w_rel:.4f} (tol 0.02); atom weight rels {atom_errs[0]:.3f}/"
        f"{atom_errs[1]:.3f} (tol 0.05); pure-drift cancellation {drift_sup:.1e} (tol 1e-10)",
    )


def test_criterion_9_manifest_reproducibility(tmp_path, monkeypatch):
    from dirichlet_reg import residuals
    from dirichlet_reg.cli import main

    cfg = {
        "grid": {"horizon": 1.0, "steps": 256},
        "model": {
            "kind": "composite",
            "components": [
                {"kind": "brownian", "sigma": 1.0},
                {"kind": "fbm", "hurst": 0.7, "scale": 0.5},
                {
                    "kind": "compound_poisson",
                    "rate": 1.0,
                    "law": {
                        "kind": "discrete",
                        "values": [0.5, -0.5],
                        "probabilities": [0.5, 0.5],
                    },
                },
            ],
        },
        "paths": 500,
        "seed": 909,
    }
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))

    def blobs(d):
        return {
            f.name: f.read_bytes() for f in sorted(d.iterdir()) if f.name != "manifest.json"
        }

    # the first run simulates 64 paths at a time, the replay all 500 at once
    runs = {}
    for label, batch_nodes in {"first": 64 * 257, "replay": 500 * 257}.items():
        monkeypatch.setattr(residuals, "_BATCH_NODES", batch_nodes)
        out = tmp_path / label
        src = cfg_file if label == "first" else tmp_path / "first" / "manifest.json"
        code = main(["residual", "--config", str(src), "--out", str(out)])
        assert code == 0
        runs[label] = blobs(out)

    sim_runs = {}
    for label in ("sim1", "sim2"):
        out = tmp_path / label
        code = main(["simulate", "--config", str(cfg_file), "--out", str(out), "--paths", "5"])
        assert code == 0
        sim_runs[label] = blobs(out)

    ok = runs["first"] == runs["replay"] and sim_runs["sim1"] == sim_runs["sim2"]
    _verdict(
        "manifest reproducibility",
        ok,
        "replayed residual outputs and repeated simulate outputs are byte-identical "
        "across batch sizes",
    )
