import numpy as np
import numpy.testing as npt
import pytest

from harmonic_sc import hsc, mc, tuning


def small_grid_cfg(**overrides):
    base = dict(
        kappa=1.0,
        rho_u=0.5,
        master_seed=42,
        t0=30,
        t_post=4,
        n0=6,
    )
    base.update(overrides)
    return mc.GridDgpConfig(**base)


def small_simple_cfg(**overrides):
    base = dict(kappa=1.0, master_seed=7, n0=4, t0=24, t_post=3)
    base.update(overrides)
    return mc.SimpleDgpConfig(**base)


# ---------------------------------------------------------------------------
# Configs


def test_config_validation():
    with pytest.raises(ValueError, match="kappa"):
        mc.GridDgpConfig(kappa=-0.1, rho_u=0.0)
    with pytest.raises(ValueError, match="rho_u"):
        mc.GridDgpConfig(kappa=0.0, rho_u=1.2)
    with pytest.raises(ValueError, match="kappa"):
        mc.SimpleDgpConfig(kappa=-1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        small_simple_cfg(noise_sd=-0.5)


def test_rep_stream_rejects_unknown_component():
    with pytest.raises(ValueError, match="unknown component"):
        mc.rep_stream(0, 1.0, 0.5, 1, "loadings")


# ---------------------------------------------------------------------------
# Simple design


def test_simple_repeat_is_bit_identical():
    cfg = small_simple_cfg()
    panel_a, latent_a = mc.simulate_simple(cfg, rep=3)
    panel_b, latent_b = mc.simulate_simple(cfg, rep=3)
    npt.assert_array_equal(panel_a.outcomes, panel_b.outcomes)
    npt.assert_array_equal(latent_a.signal, latent_b.signal)
    npt.assert_array_equal(latent_a.remainder, latent_b.remainder)


def test_simple_reps_and_seeds_differ():
    cfg = small_simple_cfg()
    _, latent_1 = mc.simulate_simple(cfg, rep=1)
    _, latent_2 = mc.simulate_simple(cfg, rep=2)
    assert np.any(latent_1.signal != latent_2.signal)
    _, latent_other = mc.simulate_simple(small_simple_cfg(master_seed=8), rep=1)
    assert np.any(latent_1.signal != latent_other.signal)


def test_simple_degenerate_units_collapse():
    # Unit loadings forced to their common mean and all disturbances off:
    # every unit is the common factor path itself.
    cfg = small_simple_cfg(kappa=0.0, loading_sd=0.0, noise_sd=0.0)
    panel, latent = mc.simulate_simple(cfg, rep=1)
    npt.assert_array_equal(latent.remainder, np.zeros_like(latent.remainder))
    for j in range(1, panel.outcomes.shape[1]):
        npt.assert_array_equal(panel.outcomes[:, j], panel.outcomes[:, 0])


def test_simple_kappa_zero_remainder_is_pure_noise():
    cfg = small_simple_cfg(kappa=0.0, t0=400, t_post=10, noise_sd=0.5)
    _, latent = mc.simulate_simple(cfg, rep=1)
    # No integrated component: the remainder variance is flat over time, at
    # the noise scale.
    assert abs(np.std(latent.remainder) - 0.5) < 0.05
    early = np.var(latent.remainder[:100])
    late = np.var(latent.remainder[-100:])
    assert 0.5 < early / late < 2.0


# ---------------------------------------------------------------------------
# Grid design


def test_grid_repeat_is_bit_identical():
    cfg = small_grid_cfg()
    panel_a, latent_a = mc.simulate_grid(cfg, rep=2)
    panel_b, latent_b = mc.simulate_grid(cfg, rep=2)
    npt.assert_array_equal(panel_a.outcomes, panel_b.outcomes)
    npt.assert_array_equal(latent_a.remainder, latent_b.remainder)


def test_grid_rejects_bad_rep():
    with pytest.raises(ValueError, match="rep"):
        mc.simulate_grid(small_grid_cfg(), rep=0)


def test_grid_cross_section_frozen_across_reps_and_cells():
    # With 12 donors the support is a random 8 of them, so equal supports
    # show the draw is frozen, not that every donor was taken.
    cfg_a = small_grid_cfg(kappa=0.0, rho_u=0.0, n0=12)
    cfg_b = small_grid_cfg(kappa=2.0, rho_u=1.0, n0=12)
    load_a, alpha_a, support_a, w_a = mc._grid_cross_section(cfg_a)
    load_b, alpha_b, support_b, w_b = mc._grid_cross_section(cfg_b)
    assert support_a.size == 8
    npt.assert_array_equal(load_a, load_b)
    npt.assert_array_equal(alpha_a, alpha_b)
    npt.assert_array_equal(support_a, support_b)
    npt.assert_array_equal(w_a, w_b)
    load_c, _, support_c, _ = mc._grid_cross_section(
        small_grid_cfg(master_seed=43, n0=12)
    )
    assert np.any(load_a != load_c)
    assert np.any(support_a != support_c)


def test_grid_cross_section_structure():
    # The treated unit combines min(8, n0) donors: all of them below 8.
    for n0, size in ((5, 5), (12, 8)):
        cfg = small_grid_cfg(n0=n0)
        loadings, alpha, support, w_star = mc._grid_cross_section(cfg)
        assert loadings.shape == (cfg.n0 + 1, 3)
        assert np.max(np.abs(loadings[1:])) <= mc.LOADING_CLIP
        npt.assert_allclose(loadings[0], w_star @ loadings[1:][support], atol=1e-15)
        assert alpha[0] == 0.0
        assert np.all((alpha[1:] >= 5.0) & (alpha[1:] <= 15.0))
        assert np.all(w_star > 0.0)
        npt.assert_allclose(w_star.sum(), 1.0, rtol=1e-12)
        assert support.size == np.unique(support).size == size


def test_grid_kappa_zero_remainder_is_reconstructable_noise():
    cfg = small_grid_cfg(kappa=0.0)
    _, latent = mc.simulate_grid(cfg, rep=5)
    t_total = cfg.t0 + cfg.t_post
    eps = mc.rep_stream(cfg.master_seed, 0.0, cfg.rho_u, 5, "noise").normal(
        0.0, 1.0, (t_total, cfg.n0 + 1)
    )
    npt.assert_array_equal(latent.remainder, eps)


def test_grid_full_mixing_gives_common_trend():
    cfg = small_grid_cfg(kappa=1.0, rho_u=1.0)
    _, latent = mc.simulate_grid(cfg, rep=1)
    t_total = cfg.t0 + cfg.t_post
    eps = mc.rep_stream(cfg.master_seed, 1.0, 1.0, 1, "noise").normal(
        0.0, 1.0, (t_total, cfg.n0 + 1)
    )
    # Reconstructing the trend as (trend + noise) - noise costs a few ulps,
    # so the shared-path check is tight allclose rather than bitwise.
    trend = latent.remainder - eps
    for j in range(1, cfg.n0 + 1):
        npt.assert_allclose(trend[:, j], trend[:, 0], rtol=0.0, atol=1e-12)


def test_trend_innovation_variance_convention():
    cfg = small_grid_cfg(rho_u=0.5)
    rng = mc.rep_stream(cfg.master_seed, cfg.kappa, cfg.rho_u, 1, "trend")
    sd = np.sqrt(1.0 - mc.PHI_E**2)
    common = rng.normal(0.0, sd, 100_000)
    own = rng.normal(0.0, sd, 100_000)
    mixed = np.sqrt(0.5) * common + np.sqrt(0.5) * own
    target = 1.0 - mc.PHI_E**2
    assert abs(np.var(mixed) - target) / target < 0.02


def test_grid_panel_matches_latent():
    cfg = small_grid_cfg()
    panel, latent = mc.simulate_grid(cfg, rep=1)
    npt.assert_array_equal(panel.outcomes, latent.observed)
    assert panel.t0 == cfg.t0
    assert panel.n_donors == cfg.n0
    assert panel.unit_labels[0] == "treated"
    assert len(panel.unit_labels) == cfg.n0 + 1


# ---------------------------------------------------------------------------
# Study harness


def test_parse_method_tokens():
    assert mc.parse_method("sc") == ("sc", 0, "")
    assert mc.parse_method("sdid") == ("sdid", 0, "")
    assert mc.parse_method("hsc:1:last_constant") == ("hsc", 1, "last_constant")
    assert mc.parse_method("hsc:2:arima110") == ("hsc", 2, "arima110")
    for bad in ("hsc", "hsc:3:last_constant", "hsc:1:nope", "magic"):
        with pytest.raises(ValueError, match="unknown method token"):
            mc.parse_method(bad)


def study_kwargs(**overrides):
    base = dict(
        design="simple",
        cfg=small_simple_cfg(),
        methods=("sc", "hsc:1:last_constant"),
        reps=4,
        folds=3,
    )
    base.update(overrides)
    return base


def test_run_study_single_rep_single_method():
    table = mc.run_study(**study_kwargs(methods=("sc",), reps=1))
    err = table.errors["sc"]
    assert err.shape == (1, 3)
    npt.assert_allclose(table.pooled_rmse["sc"], np.sqrt(np.mean(err**2)))
    npt.assert_allclose(table.per_period_rmse["sc"], np.abs(err[0]))
    assert table.failures["sc"] == 0
    assert "sc" not in table.rho_hat_samples


def test_run_study_thread_count_does_not_change_results():
    table_1 = mc.run_study(**study_kwargs(threads=1))
    table_3 = mc.run_study(**study_kwargs(threads=3))
    for token in table_1.method_tokens:
        npt.assert_array_equal(table_1.errors[token], table_3.errors[token])
    npt.assert_array_equal(
        table_1.rho_hat_samples["hsc:1:last_constant"],
        table_3.rho_hat_samples["hsc:1:last_constant"],
    )


def test_run_study_bias_variance_identity():
    table = mc.run_study(**study_kwargs())
    for token in table.method_tokens:
        rmse2 = table.pooled_rmse[token] ** 2
        parts = table.pooled_bias[token] ** 2 + table.pooled_variance[token]
        npt.assert_allclose(rmse2, parts, rtol=1e-12)


def test_run_study_records_rho_hat_on_grid():
    table = mc.run_study(**study_kwargs())
    samples = table.rho_hat_samples["hsc:1:last_constant"]
    assert samples.shape == (4,)
    assert np.all(np.isin(samples, tuning.uniform_grid()))


def test_run_study_counts_failures():
    # A training window too short for the Hamilton regression makes every
    # fold fail, so the method fails in every replication; the metric table
    # must say so rather than report numbers.
    cfg = small_simple_cfg(t0=7, t_post=2)
    table = mc.run_study(
        design="simple",
        cfg=cfg,
        methods=("sc", "hsc:1:hamilton"),
        reps=3,
        folds=2,
    )
    assert table.failures["hsc:1:hamilton"] == 3
    assert np.all(np.isnan(table.errors["hsc:1:hamilton"]))
    assert np.isnan(table.pooled_rmse["hsc:1:hamilton"])
    assert table.rho_hat_samples["hsc:1:hamilton"].size == 0
    assert table.failures["sc"] == 0
    assert np.isfinite(table.pooled_rmse["sc"])


def test_run_study_propagates_bugs(monkeypatch):
    # A bare ValueError inside a method is a programming error, not a
    # numerical failure: it must not turn into an anonymous failure count.
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(hsc, "fit_path", broken)
    with pytest.raises(ValueError, match="could not be broadcast"):
        mc.run_study(**study_kwargs(reps=1))


def test_run_study_validates_inputs():
    with pytest.raises(ValueError, match="design"):
        mc.run_study("fancy", small_simple_cfg(), ("sc",), reps=1)
    with pytest.raises(ValueError, match="GridDgpConfig"):
        mc.run_study("grid", small_simple_cfg(), ("sc",), reps=1)
    with pytest.raises(ValueError, match="reps"):
        mc.run_study(**study_kwargs(reps=0))
    with pytest.raises(ValueError, match="unknown method token"):
        mc.run_study(**study_kwargs(methods=("sc", "wat")))


def test_run_study_grid_design_smoke():
    cfg = small_grid_cfg(t0=20, t_post=3, n0=5)
    table = mc.run_study(
        design="grid",
        cfg=cfg,
        methods=("sc_int", "hsc:1:last_constant"),
        reps=2,
        folds=2,
    )
    assert table.kappa == cfg.kappa and table.rho_u == cfg.rho_u
    assert table.errors["sc_int"].shape == (2, 3)
    assert all(np.isfinite(table.pooled_rmse[t]) for t in table.method_tokens)
