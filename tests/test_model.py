import numpy as np
import pytest

from ruinvest.model import (ExponentialClaims, GeneralClaims, ModelParams,
                            convex_start_condition, regime_constants, validate)


def test_example1_validates(example1, exp_law):
    rep = validate(example1, exp_law)
    assert rep.ok
    assert rep.violations == []
    assert rep.convex_start is True


def test_b_zero_rejected(exp_law):
    p = ModelParams(c=0.02, lam=0.09, mu=0.02, r=0.015, sigma=0.1, a=1.0, b=0.0)
    rep = validate(p, exp_law)
    assert not rep.ok
    assert any("b" in v for v in rep.violations)


def test_sigma_zero_rejected(exp_law):
    p = ModelParams(c=0.02, lam=0.09, mu=0.02, r=0.015, sigma=0.0, a=1.0, b=20.0)
    rep = validate(p, exp_law)
    assert not rep.ok
    assert any("sigma" in v for v in rep.violations)


def test_r_zero_needs_oracle_mode(exp_law):
    p = ModelParams(c=0.2, lam=0.09, mu=0.0, r=0.0, sigma=0.1, a=1.0, b=1.0)
    assert not validate(p, exp_law).ok
    assert validate(p, exp_law, oracle_mode=True).ok


def test_bad_density_normalisation_rejected(example1):
    law = GeneralClaims(pdf=lambda s: 0.5 * np.exp(-s), cdf=lambda s: 0.5 * (1 - np.exp(-s)),
                        mean=1.0)
    rep = validate(example1, law)
    assert not rep.ok
    assert any("integrates" in v for v in rep.violations)


def test_regime_constants_example1(example1):
    rc = regime_constants(example1, 1.0)
    assert rc.mu_bar == pytest.approx(0.02)
    assert rc.sigma_bar == pytest.approx(0.1)
    rc = regime_constants(example1, -20.0)
    assert rc.mu_bar == pytest.approx(-20 * 0.02 + 21 * 0.015)  # -0.085
    assert rc.mu_bar == pytest.approx(-0.085)
    assert rc.sigma_bar == pytest.approx(2.0)


def test_regime_constants_example2(example2):
    rc = regime_constants(example2, 20.0)
    assert rc.mu_bar == pytest.approx(20 * 0.02 + (1 - 20) * 0.025)  # -0.075
    assert rc.mu_bar == pytest.approx(-0.075)
    assert rc.sigma_bar == pytest.approx(2.0)


def test_regime_constants_rejects_other_fractions(example1):
    with pytest.raises(ValueError):
        regime_constants(example1, 0.5)


def test_drift_identity_random_params():
    # mu_bar(a) - mu_bar(-b) = (a + b)(mu - r) for any parameter set
    rng = np.random.default_rng(7)
    for _ in range(200):
        c, lam, sigma = rng.uniform(0.01, 1.0, 3)
        mu, r = rng.uniform(-0.05, 0.1), rng.uniform(0.001, 0.1)
        a, b = rng.uniform(0.1, 30.0, 2)
        p = ModelParams(c=c, lam=lam, mu=mu, r=r, sigma=sigma, a=a, b=b)
        lhs = regime_constants(p, a).mu_bar - regime_constants(p, -b).mu_bar
        assert lhs == pytest.approx((a + b) * (mu - r), rel=1e-12, abs=1e-15)


def test_convex_start_condition_example1(example1):
    # 1*(0.02 - 0.09) + 0.02 = -0.05 < 0
    assert convex_start_condition(example1, 1.0) is True


def test_convex_start_condition_large_premium(example1):
    # c = 0.1 flips the sign: 1*(-0.07) + 0.1 = 0.03 > 0
    p = ModelParams(c=0.1, lam=0.09, mu=0.02, r=0.015, sigma=0.1, a=1.0, b=20.0)
    assert convex_start_condition(p, 1.0) is False


def test_convex_start_condition_vanishing_bracket():
    # lambda equal to the regime drift makes the bracket zero; any c > 0 fails
    p = ModelParams(c=0.01, lam=0.02, mu=0.02, r=0.015, sigma=0.1, a=1.0, b=20.0)
    # a*mu + (1-a)*r = 0.02 = lambda
    assert convex_start_condition(p, 1.0) is False


def test_exponential_law_basics():
    law = ExponentialClaims(2.0)
    s = np.linspace(0.0, 10.0, 11)
    assert np.allclose(law.pdf(s), np.exp(-s / 2) / 2)
    assert np.allclose(law.cdf(s), 1 - np.exp(-s / 2))
    assert law.density_at_zero == pytest.approx(0.5)
    assert law.pdf_derivative(0.0) == pytest.approx(-0.25)


def test_general_claims_inverse_transform_sampler():
    # without an explicit sampler, draws come from bisection on the cdf
    law = GeneralClaims(pdf=lambda s: np.exp(-s), cdf=lambda s: 1 - np.exp(-s), mean=1.0)
    rng = np.random.default_rng(3)
    draws = law.sample(rng, 20_000)
    assert np.all(draws > 0)
    assert draws.mean() == pytest.approx(1.0, abs=0.03)


def test_mixture_law_mean(mixture_law):
    rng = np.random.default_rng(5)
    draws = mixture_law.sample(rng, 40_000)
    assert draws.mean() == pytest.approx(1.5, abs=0.05)


def test_numerical_pdf_derivative_step_is_per_element(erlang_law):
    # the fallback's difference step must not depend on the rest of the batch,
    # or a tabulated f' differs from the per-node value
    batch = erlang_law.pdf_derivative(np.array([0.5, 40.0]))
    assert batch[0] == erlang_law.pdf_derivative(0.5)
    assert batch[1] == erlang_law.pdf_derivative(40.0)
    assert batch[0] == pytest.approx(4.0 * np.exp(-1.0) * (1.0 - 2.0 * 0.5), abs=1e-9)
