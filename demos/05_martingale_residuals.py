"""Monte Carlo test of the martingale property of expansion residuals.

For a bounded C^{1,2} test function and a model with known characteristics,
the residual subtracting all drift, second-order and jump-compensation terms
from F(t, X_t) should be a martingale.  The ensemble test checks zero means
and increment orthogonality at the 3-SE level.  The negative control adds the
drift c * t to every Brownian residual sample, so that the residual is no
longer a martingale, and the test must fail.
"""

from dataclasses import replace

from dirichlet_reg import (
    BrownianMotion,
    Composite,
    CompoundPoisson,
    DiscreteAtoms,
    FractionalBrownianMotion,
    GaussianJumps,
    LevyJumpDiffusion,
    TimeGrid,
    exp_tanh,
    martingale_mean_test,
    residual_ensemble,
    standard_truncation,
)

grid = TimeGrid(T=1.0, n_steps=512)
k = standard_truncation()
F = exp_tanh()
N = 10_000

models = {
    "brownian": BrownianMotion(1.0),
    "jump diffusion": LevyJumpDiffusion(0.3, 1.0, 2.0, GaussianJumps(0.0, 0.3)),
    "composite": Composite((
        BrownianMotion(1.0),
        FractionalBrownianMotion(0.7, 0.5),
        CompoundPoisson(1.0, DiscreteAtoms((0.5, -0.5), (0.5, 0.5))),
    )),
}

for name, model in models.items():
    ens = residual_ensemble(model, grid, k, F, master_seed=1, n_paths=N)
    rep = martingale_mean_test(ens)
    worst_orth = max(abs(o.z) for o in rep.orthogonality)
    print(f"{name:15s} mean z at t=(0.25, 0.5, 1): "
          + ", ".join(f"{z:+.2f}" for z in rep.zscores)
          + f"   worst orthogonality |z| {worst_orth:.2f}   pass={rep.passed}")

print("\nnegative control (drift 1.0 * t added to the residual):")
ens = residual_ensemble(BrownianMotion(1.0), grid, k, F, 1, N)
c, times = 1.0, grid.times()
drifted = {t: r + c * times[grid.index_of(t)] for t, r in ens.residual_at.items()}
rep = martingale_mean_test(replace(ens, residual_at=drifted))
print("  z:", ", ".join(f"{z:+.1f}" for z in rep.zscores), f"  pass={rep.passed}")
